let kind_of_event = function
  | Trace.Arrive _ -> "arrive"
  | Trace.Deliver _ -> "deliver"
  | Trace.Bcast _ -> "bcast"
  | Trace.Rcv _ -> "rcv"
  | Trace.Ack _ -> "ack"
  | Trace.Abort _ -> "abort"

let fields_of_event = function
  | Trace.Arrive { node; msg } | Trace.Deliver { node; msg } ->
      (node, msg, None)
  | Trace.Bcast { node; msg; instance }
  | Trace.Rcv { node; msg; instance }
  | Trace.Ack { node; msg; instance }
  | Trace.Abort { node; msg; instance } ->
      (node, msg, Some instance)

(* Through the one serializer: [Json.add_number] prints every float as
   %.17g does, so the lines keep their original bytes. *)
let add_entry buf { Trace.time; event } =
  let node, msg, inst = fields_of_event event in
  let field key i =
    Buffer.add_string buf key;
    Json.add_decimal buf i
  in
  Buffer.add_string buf {|{"t":|};
  Json.add_number buf time;
  Buffer.add_string buf {|,"e":"|};
  Buffer.add_string buf (kind_of_event event);
  field {|","node":|} node;
  field {|,"msg":|} msg;
  Option.iter (field {|,"inst":|}) inst;
  Buffer.add_char buf '}'

let entry_to_json entry =
  let buf = Buffer.create 64 in
  add_entry buf entry;
  Buffer.contents buf

let jsonl_buffer trace =
  let buf = Buffer.create 4096 in
  Trace.iter trace (fun entry ->
      add_entry buf entry;
      Buffer.add_char buf '\n');
  buf

let to_jsonl trace = Buffer.contents (jsonl_buffer trace)

let write_file trace ~path =
  Json.write_file ~path (fun oc -> Buffer.output_buffer oc (jsonl_buffer trace))

let parse_line line =
  let ( let* ) = Result.bind in
  let* json = Json.parse line in
  let field key conv = Result.bind (Json.member json key) conv in
  let* time = field "t" Json.to_float in
  let* kind = field "e" Json.to_str in
  let* node = field "node" Json.to_int in
  let* msg = field "msg" Json.to_int in
  let with_inst make =
    Result.map
      (fun instance -> { Trace.time; event = make instance })
      (field "inst" Json.to_int)
  in
  match kind with
  | "arrive" -> Ok { Trace.time; event = Trace.Arrive { node; msg } }
  | "deliver" -> Ok { Trace.time; event = Trace.Deliver { node; msg } }
  | "bcast" -> with_inst (fun instance -> Trace.Bcast { node; msg; instance })
  | "rcv" -> with_inst (fun instance -> Trace.Rcv { node; msg; instance })
  | "ack" -> with_inst (fun instance -> Trace.Ack { node; msg; instance })
  | "abort" -> with_inst (fun instance -> Trace.Abort { node; msg; instance })
  | other -> Error (Printf.sprintf "unknown event kind %S" other)

let entry_of_line = parse_line

(* --- Streamed-to-disk sink ------------------------------------------------ *)

(* A subscriber that writes each entry as it is recorded, so a run's
   trace lands on disk without the trace object retaining anything: the
   mega-path configuration is a disabled trace (no ring, no list) plus
   one of these.  Buffered by the out_channel; [sink_close] flushes. *)
type sink = { oc : out_channel; mutable written : int; mutable closed : bool }

let sink_create ~path = { oc = open_out path; written = 0; closed = false }

let sink_write s entry =
  output_string s.oc (entry_to_json entry);
  output_char s.oc '\n';
  s.written <- s.written + 1

let sink_written s = s.written

let sink_close s =
  if not s.closed then begin
    s.closed <- true;
    close_out s.oc
  end

let stream_file trace ~path =
  let s = sink_create ~path in
  Trace.subscribe trace (sink_write s);
  s

let of_jsonl text =
  let rec go acc index = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
        match parse_line line with
        | Ok entry -> go (entry :: acc) (index + 1) rest
        | Error e -> Error (Printf.sprintf "line %d: %s" index e))
  in
  go [] 1 (Json.jsonl_lines text)

let read_file ~path = Result.bind (Json.read_file path) of_jsonl
