(* In-memory span recorder for the traced run.

   A span is one call across a layer boundary, recorded by the
   benchmark's own code around calls into the library: name, start,
   stop, the span that caused it, and the id of the simulation it
   belongs to ([-1] outside any simulation).  Spans are kept in memory
   and written out once, when the run ends.

   Per-category handler time comes from [Dsim.Sim.category_stats] as a
   total, not as intervals, so it is recorded as a synthetic child whose
   interval starts at its parent's start; only its duration is used. *)

type span = {
  sid : int;
  sim : int;
  name : string;
  parent : span option;
  start : float;
  mutable stop : float;
}

type t = { mutable spans : span list; mutable next : int }

let create () = { spans = []; next = 0 }

let add t ~sim ~parent ~start ~stop name =
  let s = { sid = t.next; sim; name; parent; start; stop } in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans;
  s

let open_ t ?(sim = -1) ?parent name =
  let start = Clock.now () in
  add t ~sim ~parent ~start ~stop:start name

let close s = s.stop <- Clock.now ()

(* [within t ?sim ?parent name f] runs [f span] inside a fresh span. *)
let within t ?sim ?parent name f =
  let s = open_ t ?sim ?parent name in
  let r = f s in
  close s;
  r

let synthetic t ~parent ~dur name =
  ignore
    (add t ~sim:parent.sim ~parent:(Some parent) ~start:parent.start
       ~stop:(parent.start +. dur) name)

let duration s = s.stop -. s.start
let spans t = List.rev t.spans

(* Self time per span: its duration minus the time its children cover.
   Children of one span never overlap (calls are sequential and handler
   categories are disjoint), so the covered time is their sum. *)
let self_times t =
  let covered = Hashtbl.create 256 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
          let c = Option.value (Hashtbl.find_opt covered p.sid) ~default:0. in
          Hashtbl.replace covered p.sid (c +. duration s)
      | None -> ())
    t.spans;
  List.map
    (fun s ->
      let c = Option.value (Hashtbl.find_opt covered s.sid) ~default:0. in
      (s, duration s -. c))
    (spans t)

(* Summed self time of every span called [name]. *)
let self_total selfs name =
  List.fold_left
    (fun acc (s, self) -> if s.name = name then acc +. self else acc)
    0. selfs

(* The lib/ layers; a span named [<layer>.<call>] is a call into one.
   The benchmark's own wrappers ("workload", "setup", "sim",
   "bench.check", "case.*") are not. *)
let layers = [ "graphs"; "dsim"; "dyn"; "amac"; "mmb"; "obs"; "pdes" ]

let is_layer name =
  match String.index_opt name '.' with
  | Some i -> List.mem (String.sub name 0 i) layers
  | None -> false

let rec within_root root s =
  s.sid = root.sid
  || match s.parent with Some p -> within_root root p | None -> false

(* Share of [root]'s duration covered by the self time of layer spans
   under it.  Time spent inside a wrapper but outside every layer call
   lowers it, so a layer call left without a span shows here. *)
let coverage t root =
  let layer_self =
    List.fold_left
      (fun acc (s, self) ->
        if is_layer s.name && within_root root s then acc +. self else acc)
      0. (self_times t)
  in
  layer_self /. duration root

let to_json s =
  Dsim.Json.Obj
    [
      ("sid", Dsim.Json.Number (float_of_int s.sid));
      ("sim", Dsim.Json.Number (float_of_int s.sim));
      ("name", Dsim.Json.String s.name);
      ( "parent",
        match s.parent with
        | Some p -> Dsim.Json.Number (float_of_int p.sid)
        | None -> Dsim.Json.Null );
      ("start", Dsim.Json.Number s.start);
      ("stop", Dsim.Json.Number s.stop);
    ]

let write t ~path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc (Dsim.Json.to_string (to_json s));
      output_char oc '\n')
    (spans t);
  close_out oc
