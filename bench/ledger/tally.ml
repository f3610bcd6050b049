(* What one benchmark process accumulates: simulations attempted and
   failed (with the first few reasons), per-simulation wall times, setup
   time, the exact counts that must repeat across repeats of one seed,
   and named per-layer figures. *)

module M = Map.Make (String)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable reasons : string list;
  mutable setup_s : float;
  mutable runs_s : float list;
  mutable ints : int M.t;
  mutable floats : float M.t;
}

let create () =
  {
    attempted = 0;
    failed = 0;
    reasons = [];
    setup_s = 0.;
    runs_s = [];
    ints = M.empty;
    floats = M.empty;
  }

(* One simulation's verdict: [None] passed, [Some reason] failed. *)
let verdict t ~what = function
  | None -> t.attempted <- t.attempted + 1
  | Some reason ->
      t.attempted <- t.attempted + 1;
      t.failed <- t.failed + 1;
      if List.length t.reasons < 5 then
        t.reasons <- (what ^ ": " ^ reason) :: t.reasons

let setup t dt = t.setup_s <- t.setup_s +. dt
let run t dt = t.runs_s <- dt :: t.runs_s

let add t name v =
  t.ints <- M.update name (fun c -> Some (v + Option.value c ~default:0)) t.ints

let max_ t name v =
  t.ints <- M.update name (fun c -> Some (max v (Option.value c ~default:0))) t.ints

let addf t name v =
  t.floats <-
    M.update name (fun c -> Some (v +. Option.value c ~default:0.)) t.floats

let int t name = Option.value (M.find_opt name t.ints) ~default:0
let float t name = Option.value (M.find_opt name t.floats) ~default:0.

(* Fold an [Obs.Global] delta (engine and MAC counters of the
   simulations run between two snapshots) into the tally. *)
let note_global t (d : Obs.Global.snap) =
  add t "dsim.events" d.Obs.Global.events;
  add t "dsim.pushes" d.Obs.Global.pushes;
  add t "dsim.cancelled" d.Obs.Global.cancelled;
  max_ t "dsim.heap_high_water" d.Obs.Global.heap_high_water;
  add t "amac.bcasts" d.Obs.Global.bcasts;
  add t "amac.rcvs" d.Obs.Global.rcvs;
  add t "amac.acks" d.Obs.Global.acks;
  add t "amac.forced" d.Obs.Global.forced

(* The counts that must repeat exactly across repeats of one seed. *)
let exact_counts = [ "dsim.events"; "amac.forced"; "pdes.windows" ]

let num x = Dsim.Json.Number x
let numi i = Dsim.Json.Number (float_of_int i)

(* The tally as the fields of a JSON record. *)
let fields t =
  [
    ("attempted", numi t.attempted);
    ("failed", numi t.failed);
    ( "reasons",
      Dsim.Json.List (List.rev_map (fun r -> Dsim.Json.String r) t.reasons) );
    ("setup_s", num t.setup_s);
    ("runs_s", Dsim.Json.List (List.rev_map num t.runs_s));
    ( "counts",
      Dsim.Json.Obj (List.map (fun c -> (c, numi (int t c))) exact_counts) );
    ( "ints",
      Dsim.Json.Obj (List.map (fun (k, v) -> (k, numi v)) (M.bindings t.ints)) );
    ( "floats",
      Dsim.Json.Obj (List.map (fun (k, v) -> (k, num v)) (M.bindings t.floats))
    );
  ]
