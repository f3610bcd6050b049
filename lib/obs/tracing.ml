(* Chrome-trace-event (Perfetto / catapult) export.

   The writer streams serialized event objects into a buffer; [to_string]
   wraps them in the JSON-object trace container
   `{"traceEvents":[...],"displayTimeUnit":"ms","otherData":{...}}` that
   both chrome://tracing and https://ui.perfetto.dev load directly.

   Determinism contract: every emitter serializes through Dsim.Json (one
   canonical float rendering) in call order, and nothing here reads
   clocks, so a deterministic event source produces byte-identical trace
   files.  Virtual simulation time is mapped 1 time unit -> 1000 us
   (1 ms), which keeps Perfetto's default "ms" display unit aligned with
   model time. *)

let schema = "mmb-trace/1"

(* One virtual time unit rendered as this many trace microseconds. *)
let us_per_unit = 1000.

type t = { buf : Buffer.t; mutable count : int }

let create () = { buf = Buffer.create 4096; count = 0 }

let event_count t = t.count

let ts_of time = time *. us_per_unit

(* Emitters append each event's fields straight to the buffer in their
   fixed key order; no event is ever built as a Dsim.Json.t first. *)

let field t key = Buffer.add_string t.buf key
let num_field t key f = field t key; Dsim.Json.add_number t.buf f
let int_field t key i = num_field t key (float_of_int i)

(* Opens the next event: {"name":...,"ph":"<ph>" *)
let start t ~ph name =
  if t.count > 0 then Buffer.add_char t.buf ',';
  t.count <- t.count + 1;
  field t {|{"name":|};
  Dsim.Json.add_string t.buf name;
  field t {|,"ph":"|};
  field t ph;
  Buffer.add_char t.buf '"'

(* name, ph, ts, pid, tid: the prefix every timed event shares. *)
let base t ~ph ~pid ~tid ~ts name =
  start t ~ph name;
  num_field t {|,"ts":|} (ts_of ts);
  int_field t {|,"pid":|} pid;
  int_field t {|,"tid":|} tid

(* The optional tail, cat then non-empty args, and the closing brace. *)
let close ?cat ?args t =
  (match cat with
  | None -> ()
  | Some c ->
      field t {|,"cat":|};
      Dsim.Json.add_string t.buf c);
  (match args with
  | None | Some [] -> ()
  | Some kvs ->
      field t {|,"args":|};
      Dsim.Json.to_buffer t.buf (Dsim.Json.Obj kvs));
  Buffer.add_char t.buf '}'

(* --- Metadata ------------------------------------------------------------- *)

let metadata t ~pid ~tid kind name =
  start t ~ph:"M" kind;
  int_field t {|,"pid":|} pid;
  int_field t {|,"tid":|} tid;
  close ~args:[ ("name", Dsim.Json.String name) ] t

let process_name t ~pid name = metadata t ~pid ~tid:0 "process_name" name
let thread_name t ~pid ~tid name = metadata t ~pid ~tid "thread_name" name

(* --- Slices, instants, counters ------------------------------------------- *)

let complete t ?cat ?args ~pid ~tid ~ts ~dur name =
  base t ~ph:"X" ~pid ~tid ~ts name;
  num_field t {|,"dur":|} (ts_of dur);
  close ?cat ?args t

let instant t ?cat ?args ~pid ~tid ~ts name =
  base t ~ph:"i" ~pid ~tid ~ts name;
  field t {|,"s":"t"|};
  close ?cat ?args t

let counter t ~pid ~ts name values =
  base t ~ph:"C" ~pid ~tid:0 ~ts name;
  field t {|,"args":{|};
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char t.buf ',';
      Dsim.Json.add_string t.buf k;
      Buffer.add_char t.buf ':';
      Dsim.Json.add_number t.buf v)
    values;
  field t "}}"

(* --- Flows and async spans ------------------------------------------------ *)

let flow_start t ?cat ~pid ~tid ~ts ~id name =
  base t ~ph:"s" ~pid ~tid ~ts name;
  int_field t {|,"id":|} id;
  close ?cat t

let flow_finish t ?cat ~pid ~tid ~ts ~id name =
  base t ~ph:"f" ~pid ~tid ~ts name;
  int_field t {|,"id":|} id;
  field t {|,"bp":"e"|};
  close ?cat t

let async t ~ph ~cat ?args ~pid ~ts ~id name =
  base t ~ph ~pid ~tid:0 ~ts name;
  int_field t {|,"id":|} id;
  close ~cat ?args t

let async_begin t ?(cat = "span") ?args ~pid ~ts ~id name =
  async t ~ph:"b" ~cat ?args ~pid ~ts ~id name

let async_end t ?(cat = "span") ?args ~pid ~ts ~id name =
  async t ~ph:"e" ~cat ?args ~pid ~ts ~id name

(* --- Container ------------------------------------------------------------- *)

let header = {|{"traceEvents":[|}

let footer meta =
  let buf = Buffer.create 256 in
  Buffer.add_string buf {|],"displayTimeUnit":"ms","otherData":|};
  Dsim.Json.to_buffer buf
    (Dsim.Json.Obj
       (("schema", Dsim.Json.String schema)
       :: ("time_unit", Dsim.Json.String "1 virtual time unit = 1ms")
       :: meta));
  Buffer.add_char buf '}';
  Buffer.contents buf

let to_string ?(meta = []) t =
  String.concat "" [ header; Buffer.contents t.buf; footer meta ]

(* The event buffer goes to the file as is, never copied into a string. *)
let write_file ?(meta = []) t ~path =
  Dsim.Json.write_file ~path (fun oc ->
      output_string oc header;
      Buffer.output_buffer oc t.buf;
      output_string oc (footer meta);
      output_char oc '\n')

(* --- Validation (the verify.sh trace smoke gate) -------------------------- *)

let validate_string text =
  let ( let* ) = Result.bind in
  let* doc = Dsim.Json.parse text in
  let* events = Dsim.Json.member doc "traceEvents" in
  let* events = Dsim.Json.to_list events in
  let* other = Dsim.Json.member doc "otherData" in
  let* got = Dsim.Json.member other "schema" in
  let* got = Dsim.Json.to_str got in
  if got <> schema then
    Error (Printf.sprintf "schema mismatch: expected %S, got %S" schema got)
  else
    let rec check i = function
      | [] -> Ok i
      | e :: rest ->
          let field name =
            match Dsim.Json.member_opt e name with
            | Some v -> Ok v
            | None -> Error (Printf.sprintf "event %d: missing %S" i name)
          in
          let* _ = field "ph" in
          let* _ = field "pid" in
          let* _ = field "name" in
          check (i + 1) rest
    in
    check 0 events

(* --- The simulation collector --------------------------------------------- *)

(* Track layout:
     pid 1  "simulation"  one thread per node; MAC instance slices
                          (bcast -> ack/abort) live on the sender's
                          track, rcv/arrive/deliver are zero-width
                          slices so flow arrows have anchors
     pid 2  "messages"    one async span per MMB message, Arrive ->
                          n-th distinct Deliver
   Flow arrows bind a Bcast to each Rcv it caused (one fresh flow id per
   (instance, receiver) pair, so fan-out renders as a fan, not a chain). *)

let sim_pid = 1
let msg_pid = 2

type open_inst = { i_node : int; i_msg : int; i_t0 : float }

module Sim = struct
  type collector = {
    w : t;
    n : int;
    insts : (int, open_inst) Hashtbl.t; (* live instance uid -> open slice *)
    delivers : (int, int) Hashtbl.t; (* msg -> distinct deliver count *)
    named : (int, unit) Hashtbl.t; (* node tracks already labelled *)
    mutable flow_ids : int;
    mutable total_delivers : int;
    mutable last_time : float;
  }

  let create ?(name = "simulation") ~n () =
    let w = create () in
    process_name w ~pid:sim_pid name;
    process_name w ~pid:msg_pid "messages";
    {
      w;
      n;
      insts = Hashtbl.create 64;
      delivers = Hashtbl.create 16;
      named = Hashtbl.create 64;
      flow_ids = 0;
      total_delivers = 0;
      last_time = 0.;
    }

  (* Track and slice names ("node 4", "rcv m3 i17", ...): text and
     decimal parts in one buffer, no Printf or intermediate strings. *)
  let label parts =
    let b = Buffer.create 16 in
    List.iter
      (fun (text, i) ->
        Buffer.add_string b text;
        Dsim.Json.add_decimal b i)
      parts;
    Buffer.contents b

  (* Node tracks are labelled lazily on first use: event order is
     deterministic, so the labelling order is too, and million-node
     topologies don't pay for n metadata records up front. *)
  let node_track c node =
    if not (Hashtbl.mem c.named node) then begin
      Hashtbl.replace c.named node ();
      thread_name c.w ~pid:sim_pid ~tid:node (label [ ("node ", node) ])
    end;
    node

  let iname instance msg = label [ ("i", instance); (" m", msg) ]

  let mark c ~node ~time ?args name =
    (* Zero-width complete slice rather than an instant: Perfetto anchors
       flow arrows on slices only. *)
    complete c.w ~cat:"event" ?args ~pid:sim_pid ~tid:(node_track c node)
      ~ts:time ~dur:0. name

  let close_inst c ~instance ~node ~msg ~time ~how =
    let t0, tid =
      match Hashtbl.find_opt c.insts instance with
      | Some inst -> (inst.i_t0, inst.i_node)
      | None -> (time, node)
    in
    Hashtbl.remove c.insts instance;
    complete c.w ~cat:"inst"
      ~args:[ ("end", Dsim.Json.String how) ]
      ~pid:sim_pid ~tid:(node_track c tid) ~ts:t0 ~dur:(time -. t0)
      (iname instance msg)

  let on_entry c { Dsim.Trace.time; event } =
    if time > c.last_time then c.last_time <- time;
    match event with
    | Dsim.Trace.Arrive { node; msg } ->
        mark c ~node ~time (label [ ("arrive m", msg) ]);
        async_begin c.w ~cat:"mmb" ~pid:msg_pid ~ts:time ~id:msg
          ~args:[ ("origin", Dsim.Json.Number (float_of_int node)) ]
          (label [ ("m", msg) ])
    | Dsim.Trace.Deliver { node; msg } ->
        mark c ~node ~time (label [ ("deliver m", msg) ]);
        let seen =
          match Hashtbl.find_opt c.delivers msg with Some d -> d | None -> 0
        in
        Hashtbl.replace c.delivers msg (seen + 1);
        c.total_delivers <- c.total_delivers + 1;
        counter c.w ~pid:sim_pid ~ts:time "frontier"
          [ ("delivers", float_of_int c.total_delivers) ];
        if seen + 1 = c.n then
          async_end c.w ~cat:"mmb" ~pid:msg_pid ~ts:time ~id:msg
            (label [ ("m", msg) ])
    | Dsim.Trace.Bcast { node; msg; instance } ->
        ignore (node_track c node);
        Hashtbl.replace c.insts instance
          { i_node = node; i_msg = msg; i_t0 = time }
    | Dsim.Trace.Rcv { node; msg; instance } -> (
        mark c ~node ~time (label [ ("rcv m", msg); (" i", instance) ]);
        match Hashtbl.find_opt c.insts instance with
        | None -> ()
        | Some inst ->
            let id = c.flow_ids in
            c.flow_ids <- id + 1;
            let name = iname instance msg in
            flow_start c.w ~cat:"mac" ~pid:sim_pid ~tid:inst.i_node
              ~ts:inst.i_t0 ~id name;
            flow_finish c.w ~cat:"mac" ~pid:sim_pid ~tid:node ~ts:time ~id
              name)
    | Dsim.Trace.Ack { node; msg; instance } ->
        close_inst c ~instance ~node ~msg ~time ~how:"acked"
    | Dsim.Trace.Abort { node; msg; instance } ->
        close_inst c ~instance ~node ~msg ~time ~how:"aborted"

  let attach c trace = Dsim.Trace.subscribe trace (fun e -> on_entry c e)

  (* Instances still open at the end of the run (never acked or aborted)
     render as slices reaching the last observed time, closed in sorted
     uid order so the file stays deterministic. *)
  let finish c =
    Dsim.Tbl.sorted_iter ~cmp:Int.compare
      (fun instance inst ->
        complete c.w ~cat:"inst"
          ~args:[ ("end", Dsim.Json.String "open") ]
          ~pid:sim_pid ~tid:inst.i_node ~ts:inst.i_t0
          ~dur:(c.last_time -. inst.i_t0)
          (iname instance inst.i_msg))
      c.insts;
    Hashtbl.reset c.insts;
    c.w
end
