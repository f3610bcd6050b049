(* Serializer oracle: the buffer serializer (Dsim.Json.to_buffer and the
   add_* primitives the trace emitters append with) against a reference
   copy of the original string-concatenating printer, byte for byte, on
   generated values.  The Perfetto emitters are checked the same way
   against a reference copy of their original field-list construction. *)

(* --- Reference printer (the original Dsim.Json.to_string, verbatim) --- *)

module Ref = struct
  open Dsim.Json

  let escape_string s =
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf {|\"|}
        | '\\' -> Buffer.add_string buf {|\\|}
        | '\n' -> Buffer.add_string buf {|\n|}
        | '\t' -> Buffer.add_string buf {|\t|}
        | '\r' -> Buffer.add_string buf {|\r|}
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf {|\u%04x|} (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf

  let rec to_string = function
    | Null -> "null"
    | Bool b -> string_of_bool b
    | Number f ->
        if Float.is_integer f && Float.abs f < 1e15 then
          Printf.sprintf "%.0f" f
        else Printf.sprintf "%.17g" f
    | String s -> escape_string s
    | List l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
    | Obj members ->
        "{"
        ^ String.concat ","
            (List.map
               (fun (k, v) -> escape_string k ^ ":" ^ to_string v)
               members)
        ^ "}"
end

(* --- Generators --------------------------------------------------------- *)

let edge_floats =
  [
    0.;
    -0.;
    1e15 -. 1.;
    -.(1e15 -. 1.);
    1e15;
    -1e15;
    1e15 +. 1.;
    2. ** 53.;
    -.(2. ** 53.);
    (2. ** 53.) +. 2.;
    nan;
    -.nan;
    infinity;
    neg_infinity;
    0.5;
    -0.5;
    0.1;
    1. /. 3.;
    2.5154371579222561;
    1e-300;
    5e-324;
    max_float;
    -.max_float;
    1e21;
    123456.789;
    (* neighbours of powers of two and ten, and 18-digit values that tie
       when rounded to 17 *)
    0x1p-13;
    Float.pred 0x1p-13;
    Float.pred 0x1p49;
    0x1p49 +. 0.5;
    0.0001;
    Float.pred 0.0001;
    Float.succ 0.001;
    Float.pred 1e14;
    400000000000000.125;
    400000000000000.375;
    -400000000000000.625;
    99999999999999.9922;
  ]

let gen_float =
  QCheck.Gen.(
    frequency
      [
        (3, oneofl edge_floats);
        (2, float);
        (2, map float_of_int (int_range (-100_000) 100_000));
        (1, map float_of_int int);
        ( 1,
          map
            (fun i -> float_of_int i /. 1024.)
            (int_range (-1_000_000) 1_000_000) );
        (2, map2 Float.ldexp (float_range 0.5 1.) (int_range (-16) 52));
        (1, float_range 0. 1e6);
      ])

(* Every byte, weighted toward the ones that need escaping. *)
let gen_char =
  QCheck.Gen.(
    frequency
      [
        (3, char_range 'a' 'z');
        (2, oneofl [ '"'; '\\'; '\n'; '\t'; '\r'; '\b'; '\012'; '/'; ' ' ]);
        (2, map Char.chr (int_range 0 0x1f));
        (1, map Char.chr (int_range 0 255));
      ])

let gen_str = QCheck.Gen.(string_size ~gen:gen_char (int_range 0 10))

let gen_json =
  QCheck.Gen.(
    sized_size (int_range 0 12)
    @@ fix (fun self n ->
           let leaf =
             frequency
               [
                 (1, return Dsim.Json.Null);
                 (1, map (fun b -> Dsim.Json.Bool b) bool);
                 (4, map (fun f -> Dsim.Json.Number f) gen_float);
                 (3, map (fun s -> Dsim.Json.String s) gen_str);
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 ( 1,
                   map
                     (fun l -> Dsim.Json.List l)
                     (list_size (int_range 0 4) (self (n / 2))) );
                 ( 1,
                   map
                     (fun kvs -> Dsim.Json.Obj kvs)
                     (list_size (int_range 0 4) (pair gen_str (self (n / 2))))
                 );
               ]))

let arb_json =
  QCheck.make ~print:(fun v -> String.escaped (Ref.to_string v)) gen_json

(* --- Value serializer --------------------------------------------------- *)

let prop_to_string_matches_reference =
  QCheck.Test.make ~name:"to_string = reference printer" ~count:2000 arb_json
    (fun v -> String.equal (Dsim.Json.to_string v) (Ref.to_string v))

let prop_to_buffer_appends =
  QCheck.Test.make ~name:"to_buffer appends the reference bytes" ~count:500
    arb_json (fun v ->
      let buf = Buffer.create 1 in
      Buffer.add_string buf "prefix,";
      Dsim.Json.to_buffer buf v;
      String.equal (Buffer.contents buf) ("prefix," ^ Ref.to_string v))

let render f x =
  let buf = Buffer.create 16 in
  f buf x;
  Buffer.contents buf

let prop_add_decimal_matches_string_of_int =
  QCheck.Test.make ~name:"add_decimal = string_of_int" ~count:1000
    QCheck.(
      make ~print:string_of_int
        Gen.(oneof [ oneofl [ 0; -1; 9; 10; max_int; min_int ]; int ]))
    (fun i -> String.equal (render Dsim.Json.add_decimal i) (string_of_int i))

let test_edge_numbers () =
  List.iter
    (fun f ->
      Alcotest.(check string)
        (Printf.sprintf "%h" f)
        (Ref.to_string (Dsim.Json.Number f))
        (render Dsim.Json.add_number f))
    edge_floats;
  Alcotest.(check string) "-0 keeps its sign" "-0"
    (Dsim.Json.to_string (Dsim.Json.Number (-0.)))

(* --- Perfetto emitters -------------------------------------------------- *)

(* The original emitters: each event built as a field list, rendered by
   the reference printer, and joined into the original container. *)
module Ref_tracing = struct
  let num f = Dsim.Json.Number f
  let str s = Dsim.Json.String s
  let int i = num (float_of_int i)
  let ts_of time = time *. 1000.

  let base ~ph ~pid ~tid ~ts name =
    [
      ("name", str name);
      ("ph", str ph);
      ("ts", num (ts_of ts));
      ("pid", int pid);
      ("tid", int tid);
    ]

  let with_opt ?cat ?args fields =
    let fields =
      match cat with None -> fields | Some c -> fields @ [ ("cat", str c) ]
    in
    match args with
    | None | Some [] -> fields
    | Some kvs -> fields @ [ ("args", Dsim.Json.Obj kvs) ]

  let metadata kind ~pid ~tid name =
    [
      ("name", str kind);
      ("ph", str "M");
      ("pid", int pid);
      ("tid", int tid);
      ("args", Dsim.Json.Obj [ ("name", str name) ]);
    ]

  let document ~meta events =
    let other =
      Dsim.Json.Obj
        (("schema", str Obs.Tracing.schema)
        :: ("time_unit", str "1 virtual time unit = 1ms")
        :: meta)
    in
    String.concat ""
      [
        {|{"traceEvents":[|};
        String.concat ","
          (List.map (fun f -> Ref.to_string (Dsim.Json.Obj f)) events);
        {|],"displayTimeUnit":"ms","otherData":|};
        Ref.to_string other;
        "}";
      ]
end

type emit_case = {
  name : string;
  cat : string option;
  args : (string * Dsim.Json.t) list option;
  pid : int;
  tid : int;
  ts : float;
  dur : float;
  id : int;
  values : (string * float) list;
  meta : (string * Dsim.Json.t) list;
}

let gen_case =
  QCheck.Gen.(
    let small = int_range (-5) 100_000 in
    let gen_args = list_size (int_range 0 3) (pair gen_str gen_json) in
    gen_str >>= fun name ->
    opt gen_str >>= fun cat ->
    opt gen_args >>= fun args ->
    small >>= fun pid ->
    small >>= fun tid ->
    gen_float >>= fun ts ->
    gen_float >>= fun dur ->
    small >>= fun id ->
    list_size (int_range 0 3) (pair gen_str gen_float) >>= fun values ->
    gen_args >>= fun meta ->
    return { name; cat; args; pid; tid; ts; dur; id; values; meta })

let prop_emitters_match_reference =
  QCheck.Test.make ~name:"every Perfetto emitter = reference field list"
    ~count:500
    (QCheck.make
       ~print:(fun c -> String.escaped c.name ^ " @ " ^ string_of_float c.ts)
       gen_case)
    (fun c ->
      let open Ref_tracing in
      let { name; cat; args; pid; tid; ts; dur; id; values; meta } = c in
      let w = Obs.Tracing.create () in
      Obs.Tracing.process_name w ~pid name;
      Obs.Tracing.thread_name w ~pid ~tid name;
      Obs.Tracing.complete w ?cat ?args ~pid ~tid ~ts ~dur name;
      Obs.Tracing.instant w ?cat ?args ~pid ~tid ~ts name;
      Obs.Tracing.counter w ~pid ~ts name values;
      Obs.Tracing.flow_start w ?cat ~pid ~tid ~ts ~id name;
      Obs.Tracing.flow_finish w ?cat ~pid ~tid ~ts ~id name;
      Obs.Tracing.async_begin w ?cat ?args ~pid ~ts ~id name;
      Obs.Tracing.async_end w ?args ~pid ~ts ~id name;
      let async_cat = Option.value cat ~default:"span" in
      let expected =
        document ~meta
          [
            metadata "process_name" ~pid ~tid:0 name;
            metadata "thread_name" ~pid ~tid name;
            with_opt ?cat ?args
              (base ~ph:"X" ~pid ~tid ~ts name @ [ ("dur", num (ts_of dur)) ]);
            with_opt ?cat ?args
              (base ~ph:"i" ~pid ~tid ~ts name @ [ ("s", str "t") ]);
            [
              ("name", str name);
              ("ph", str "C");
              ("ts", num (ts_of ts));
              ("pid", int pid);
              ("tid", int 0);
              ( "args",
                Dsim.Json.Obj (List.map (fun (k, v) -> (k, num v)) values) );
            ];
            with_opt ?cat
              (base ~ph:"s" ~pid ~tid ~ts name @ [ ("id", int id) ]);
            with_opt ?cat
              (base ~ph:"f" ~pid ~tid ~ts name
              @ [ ("id", int id); ("bp", str "e") ]);
            with_opt ~cat:async_cat ?args
              (base ~ph:"b" ~pid ~tid:0 ~ts name @ [ ("id", int id) ]);
            with_opt ~cat:"span" ?args
              (base ~ph:"e" ~pid ~tid:0 ~ts name @ [ ("id", int id) ]);
          ]
      in
      String.equal (Obs.Tracing.to_string ~meta w) expected
      && Obs.Tracing.event_count w = 9)

let suite =
  [
    ( "json-oracle",
      [
        Alcotest.test_case "edge numbers match the reference" `Quick
          test_edge_numbers;
        QCheck_alcotest.to_alcotest prop_to_string_matches_reference;
        QCheck_alcotest.to_alcotest prop_to_buffer_appends;
        QCheck_alcotest.to_alcotest prop_add_decimal_matches_string_of_int;
        QCheck_alcotest.to_alcotest prop_emitters_match_reference;
      ] );
  ]
