type t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of int * string

let error pos fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error (pos, msg))) fmt

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

(* Option-free probe: [peek st = Some c] would compare char options with
   polymorphic equality. *)
let peek_is st ch =
  st.pos < String.length st.src && Char.equal st.src.[st.pos] ch

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st ch =
  match peek st with
  | Some c when c = ch -> advance st
  | Some c -> error st.pos "expected %c, found %c" ch c
  | None -> error st.pos "expected %c, found end of input" ch

let parse_literal st word value =
  let len = String.length word in
  if
    st.pos + len <= String.length st.src
    && String.sub st.src st.pos len = word
  then begin
    st.pos <- st.pos + len;
    value
  end
  else error st.pos "invalid literal"

let parse_string_body st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st.pos "unterminated string"
    | Some '"' ->
        advance st;
        Buffer.contents buf
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some 'n' -> advance st; Buffer.add_char buf '\n'; go ()
        | Some 't' -> advance st; Buffer.add_char buf '\t'; go ()
        | Some 'r' -> advance st; Buffer.add_char buf '\r'; go ()
        | Some 'b' -> advance st; Buffer.add_char buf '\b'; go ()
        | Some 'f' -> advance st; Buffer.add_char buf '\012'; go ()
        | Some '"' -> advance st; Buffer.add_char buf '"'; go ()
        | Some '\\' -> advance st; Buffer.add_char buf '\\'; go ()
        | Some '/' -> advance st; Buffer.add_char buf '/'; go ()
        | Some 'u' ->
            (* \uXXXX: decode the code point as UTF-8 (no surrogate-pair
               handling — configuration files do not need astral planes). *)
            advance st;
            if st.pos + 4 > String.length st.src then
              error st.pos "truncated unicode escape";
            let hex = String.sub st.src st.pos 4 in
            st.pos <- st.pos + 4;
            (match int_of_string_opt ("0x" ^ hex) with
            | None -> error st.pos "bad unicode escape"
            | Some cp ->
                if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
                else if cp < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
                  Buffer.add_char buf
                    (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
                  Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
                end);
            go ()
        | _ -> error st.pos "bad escape")
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c -> is_num_char c | None -> false) do
    advance st
  done;
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> Number f
  | None -> error start "invalid number %S" text

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st.pos "unexpected end of input"
  | Some '{' -> parse_obj st
  | Some '[' -> parse_list st
  | Some '"' -> String (parse_string_body st)
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> error st.pos "unexpected character %c" c

and parse_obj st =
  expect st '{';
  skip_ws st;
  if peek_is st '}' then begin
    advance st;
    Obj []
  end
  else begin
    let rec members acc =
      skip_ws st;
      let key = parse_string_body st in
      skip_ws st;
      expect st ':';
      let value = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          members ((key, value) :: acc)
      | Some '}' ->
          advance st;
          Obj (List.rev ((key, value) :: acc))
      | _ -> error st.pos "expected , or } in object"
    in
    members []
  end

and parse_list st =
  expect st '[';
  skip_ws st;
  if peek_is st ']' then begin
    advance st;
    List []
  end
  else begin
    let rec elements acc =
      let value = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          elements (value :: acc)
      | Some ']' ->
          advance st;
          List (List.rev (value :: acc))
      | _ -> error st.pos "expected , or ] in array"
    in
    elements []
  end

let parse src =
  let st = { src; pos = 0 } in
  match parse_value st with
  | value ->
      skip_ws st;
      if st.pos <> String.length src then
        Error (Printf.sprintf "offset %d: trailing content" st.pos)
      else Ok value
  | exception Parse_error (pos, msg) ->
      Error (Printf.sprintf "offset %d: %s" pos msg)

(* --- The one serializer (number and string forms: see the .mli) ----- *)

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf {|\"|}
      | '\\' -> Buffer.add_string buf {|\\|}
      | '\n' -> Buffer.add_string buf {|\n|}
      | '\t' -> Buffer.add_string buf {|\t|}
      | '\r' -> Buffer.add_string buf {|\r|}
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf {|\u%04x|} (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The C formatter behind Printf's %g, minus Printf's format
   interpretation: the same bytes for every float. *)
external format_float : string -> float -> string = "caml_format_float"

(* Decimal digits of [i <= 0]'s magnitude, most significant first;
   working on the non-positive side keeps [min_int] in range. *)
let rec add_neg_digits buf i =
  if i <= -10 then add_neg_digits buf (i / 10);
  Buffer.add_char buf (Char.chr (48 - (i mod 10)))

let add_decimal buf i =
  if i < 0 then Buffer.add_char buf '-';
  add_neg_digits buf (if i < 0 then i else -i)

let add_number buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    if Float.equal f 0. && Float.sign_bit f then Buffer.add_string buf "-0"
    else add_decimal buf (int_of_float f)
  else Buffer.add_string buf (format_float "%.17g" f)

let add_seq buf ~first ~last add items =
  Buffer.add_char buf first;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      add x)
    items;
  Buffer.add_char buf last

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Number f -> add_number buf f
  | String s -> add_string buf s
  | List l -> add_seq buf ~first:'[' ~last:']' (to_buffer buf) l
  | Obj members ->
      add_seq buf ~first:'{' ~last:'}'
        (fun (k, v) ->
          add_string buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        members

let to_string v =
  let buf = Buffer.create 64 in
  to_buffer buf v;
  Buffer.contents buf

let write_file ~path output =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output oc)

let write_jsonl ~path iter =
  let buf = Buffer.create 4096 in
  iter (fun v ->
      to_buffer buf v;
      Buffer.add_char buf '\n');
  write_file ~path (fun oc -> Buffer.output_buffer oc buf)

let read_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> Ok text
  | exception Sys_error e -> Error e

let member v key =
  match v with
  | Obj members -> (
      match List.assoc_opt key members with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "missing field %S" key))
  | _ -> Error (Printf.sprintf "expected an object around field %S" key)

let member_opt v key =
  match v with Obj members -> List.assoc_opt key members | _ -> None

let to_float = function
  | Number f -> Ok f
  | _ -> Error "expected a number"

let to_int = function
  | Number f when Float.is_integer f -> Ok (int_of_float f)
  | Number _ -> Error "expected an integer"
  | _ -> Error "expected a number"

let to_bool = function Bool b -> Ok b | _ -> Error "expected a boolean"
let to_str = function String s -> Ok s | _ -> Error "expected a string"
let to_list = function List l -> Ok l | _ -> Error "expected an array"

let with_default v key ~default conv =
  match member_opt v key with
  | None -> Ok default
  | Some x -> (
      match conv x with
      | Ok r -> Ok r
      | Error e -> Error (Printf.sprintf "field %S: %s" key e))

let member_str v key ~default = with_default v key ~default to_str
let member_int v key ~default = with_default v key ~default to_int
let member_float v key ~default = with_default v key ~default to_float

(* --- Schema-stamped JSONL ------------------------------------------------- *)

let jsonl_lines text =
  List.filter
    (fun l -> not (String.equal (String.trim l) ""))
    (String.split_on_char '\n' text)

let ( let* ) = Result.bind

let jsonl_schema text =
  match jsonl_lines text with
  | [] -> Error "empty JSONL file"
  | first :: _ ->
      let* doc = parse first in
      let* got = member doc "schema" in
      to_str got

let validate_jsonl ~schema ?kinds text =
  let* got = jsonl_schema text in
  if not (String.equal got schema) then
    Error (Printf.sprintf "schema mismatch: expected %S, got %S" schema got)
  else
    let check count line =
      let* i = count in
      Result.map_error (Printf.sprintf "line %d: %s" (i + 1))
        (let* doc = parse line in
         let* kind = Result.bind (member doc "kind") to_str in
         match kinds with
         | Some kinds when not (List.exists (String.equal kind) kinds) ->
             Error (Printf.sprintf "unknown kind %S" kind)
         | _ -> Ok (i + 1))
    in
    List.fold_left check (Ok 0) (jsonl_lines text)
