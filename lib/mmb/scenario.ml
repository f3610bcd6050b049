type arrivals = Batch | Poisson of float | Staggered of float

type dyn_spec = {
  dyn_kind : string; (* "static" | "flap" | "churn" | "adversary" *)
  dyn_epoch : float; (* stability parameter T (epoch length) *)
  dyn_period : int; (* flap *)
  dyn_churn : float; (* churn drop rate *)
  dyn_seed : int; (* churn / adversary *)
}

type spec = {
  name : string;
  protocol : [ `Bmmb | `Fmmb | `Fmmb_online ];
  topology : string;
  n : int;
  gprime : string;
  r : int;
  extra : int;
  k : int;
  fack : float;
  fprog : float;
  seed : int;
  scheduler : string;
  arrivals : arrivals;
  check : bool;
  repeat : int;
  dynamic : dyn_spec option;
  domains : int;  (* worker domains for the partitioned engine *)
  partitions : int;  (* partition count P (resolved: >= 1) *)
}

type run_result = {
  seed : int;
  complete : bool;
  time : float;
  bound : float option;
  bcasts : int option;
  mean_latency : float option;
  violations : int;
  epochs : int option;
}

let ( let* ) = Result.bind

(* --- Vocabulary and defaults ---------------------------------------------- *)

let topologies = [ "line"; "ring"; "grid"; "star"; "geometric" ]
let gprimes = [ "equal"; "r-restricted"; "arbitrary"; "greyzone" ]
let schedulers = [ "eager"; "random"; "adversarial"; "bursty" ]
let protocols = [ "bmmb"; "fmmb"; "fmmb-online" ]
let dynamic_kinds = [ "static"; "flap"; "churn"; "adversary" ]

let field_error field msg = Printf.sprintf "field %S: %s" field msg

let unknown value vocab =
  Printf.sprintf "unknown value %S; known: %s" value (String.concat ", " vocab)

let protocol_name = function
  | `Bmmb -> "bmmb"
  | `Fmmb -> "fmmb"
  | `Fmmb_online -> "fmmb-online"

let protocol_of_string = function
  | "bmmb" -> Ok `Bmmb
  | "fmmb" -> Ok `Fmmb
  | "fmmb-online" -> Ok `Fmmb_online
  | other -> Error (field_error "protocol" (unknown other protocols))

let default_dynamic =
  {
    dyn_kind = "static";
    dyn_epoch = 10.;
    dyn_period = 1;
    dyn_churn = 0.2;
    dyn_seed = 0;
  }

let default =
  {
    name = "scenario";
    protocol = `Bmmb;
    topology = "line";
    n = 30;
    gprime = "equal";
    r = 2;
    extra = 10;
    k = 4;
    fack = 20.;
    fprog = 1.;
    seed = 1;
    scheduler = "random";
    arrivals = Batch;
    check = false;
    repeat = 1;
    dynamic = None;
    domains = 1;
    partitions = 0;
  }

(* --- The validator -------------------------------------------------------- *)

(* One row per constraint: the field it names, whether the spec meets it,
   and what it needs.  The rows after the value checks are the capability
   table: engine (serial, or partitioned when [partitions > 1]) ×
   protocol × scheduler × arrivals × dynamic kind × [check]. *)
let validate s =
  let partitions = if s.partitions = 0 then max s.domains 1 else s.partitions in
  let pdes = partitions > 1 in
  let bmmb = s.protocol = `Bmmb in
  let batch = match s.arrivals with Batch -> true | _ -> false in
  let dyn ok = match s.dynamic with Some d -> ok d | None -> true in
  let kind = match s.dynamic with Some d -> d.dyn_kind | None -> "static" in
  let rows =
    [
      ("topology", List.mem s.topology topologies,
       unknown s.topology topologies);
      ("gprime", List.mem s.gprime gprimes,
       unknown s.gprime gprimes);
      ("scheduler", List.mem s.scheduler schedulers,
       unknown s.scheduler schedulers);
      ("dynamic.kind", List.mem kind dynamic_kinds,
       unknown kind dynamic_kinds);
      ("n", s.n >= 1, Printf.sprintf "need n >= 1 (got %d)" s.n);
      ("k", s.k >= 0, Printf.sprintf "need k >= 0 (got %d)" s.k);
      ("r", s.gprime <> "r-restricted" || s.r >= 1,
       Printf.sprintf "need r >= 1 for gprime \"r-restricted\" (got %d)" s.r);
      ("extra", s.extra >= 0,
       Printf.sprintf "need extra >= 0 (got %d)" s.extra);
      ("fprog", s.fprog > 0. && s.fprog <= s.fack,
       Printf.sprintf "need 0 < fprog <= fack (got fprog %g, fack %g)" s.fprog
         s.fack);
      ("repeat", s.repeat >= 1,
       Printf.sprintf "need repeat >= 1 (got %d)" s.repeat);
      ("rate", (match s.arrivals with Poisson rate -> rate > 0. | _ -> true),
       "need rate > 0 for poisson arrivals");
      ("gap", (match s.arrivals with Staggered gap -> gap >= 0. | _ -> true),
       "need gap >= 0 for staggered arrivals");
      ("dynamic.epoch", dyn (fun d -> d.dyn_epoch > 0.), "need epoch > 0");
      ("dynamic.period", dyn (fun d -> d.dyn_period >= 1),
       "need period >= 1");
      ("dynamic.churn", dyn (fun d -> d.dyn_churn >= 0. && d.dyn_churn <= 1.),
       "need churn in [0, 1]");
      ("domains", s.domains >= 1,
       Printf.sprintf "need domains >= 1 (got %d)" s.domains);
      ("partitions", s.partitions >= 0, "need partitions >= 0 (0 = auto)");
      (* capability table *)
      ("dynamic", Option.is_none s.dynamic || bmmb,
       "protocol must be \"bmmb\" (FMMB's per-stage engines do not take \
        epoch schedules)");
      ("arrivals", s.protocol <> `Fmmb || batch,
       "protocol \"fmmb\" takes batch arrivals only (use \"fmmb-online\")");
      ("domains", s.domains <= partitions,
       Printf.sprintf
         "domains-exceed-partitions: %d worker domains cannot be mapped \
          onto %d partition(s); raise \"partitions\" or lower \"domains\""
         s.domains partitions);
      ("partitions", (not pdes) || bmmb,
       "the partitioned engine runs protocol \"bmmb\" only");
      ("arrivals", (not pdes) || batch,
       "the partitioned engine is batch-arrivals only");
      ("scheduler", (not pdes) || s.scheduler = "random",
       Printf.sprintf
         "the partitioned engine fixes the \"random\" scheduler family (got \
          %S)"
         s.scheduler);
      ("dynamic.kind", (not pdes) || kind <> "adversary",
       "the adversary oracle needs global delivered-set knowledge and \
        cannot be partitioned; use kind static, flap, or churn");
      ("check", (not pdes) || not s.check,
       "the partitioned engine retains no trace to audit; use partitions 1");
    ]
  in
  match List.find_opt (fun (_, ok, _) -> not ok) rows with
  | Some (field, _, need) -> Error (field_error field need)
  | None -> Ok { s with partitions }

(* --- Building blocks ----------------------------------------------------- *)

let build_dual ~topology ~gprime ~n ~r ~extra ~seed =
  let rng = Dsim.Rng.create ~seed:(seed + 911) in
  let side = sqrt (float_of_int n /. 3.) in
  if gprime = "greyzone" then
    Ok
      (Graphs.Dual.grey_zone_connected rng ~n ~width:side ~height:side ~c:2.
         ~p:0.4 ~max_tries:2000)
  else
    let* g =
      match topology with
      | "line" -> Ok (Graphs.Gen.line n)
      | "ring" -> Ok (Graphs.Gen.ring (max 3 n))
      | "star" -> Ok (Graphs.Gen.star n)
      | "grid" ->
          let side = int_of_float (ceil (sqrt (float_of_int n))) in
          Ok (Graphs.Gen.grid ~rows:side ~cols:side)
      | "geometric" ->
          (* The base graph draws from its own stream, so the G' regime's
             draws below do not depend on how many placements it took. *)
          let base_rng = Dsim.Rng.create ~seed:(seed + 7321) in
          Ok
            (fst
               (Graphs.Gen.random_connected_geometric base_rng ~n ~width:side
                  ~height:side ~radius:1. ~max_tries:2000))
      | other -> Error (field_error "topology" (unknown other topologies))
    in
    match gprime with
    | "equal" -> Ok (Graphs.Dual.of_equal g)
    | "r-restricted" -> Ok (Graphs.Dual.r_restricted_random rng ~g ~r ~extra)
    | "arbitrary" -> Ok (Graphs.Dual.arbitrary_random rng ~g ~extra)
    | other -> Error (field_error "gprime" (unknown other gprimes))

let build_scheduler = function
  | "eager" -> Ok (Amac.Schedulers.eager ())
  | "random" -> Ok (Amac.Schedulers.random_compliant ())
  | "adversarial" -> Ok (Amac.Schedulers.adversarial ())
  | "bursty" -> Ok (Amac.Schedulers.bursty ())
  | other -> Error (field_error "scheduler" (unknown other schedulers))

(* The versioned dual a validated [dynamic] sub-object describes, over the
   base (union) dual the static builders produced. *)
let build_dyn ~dual d =
  let epoch_len = d.dyn_epoch in
  match d.dyn_kind with
  | "static" -> Dyn.Dual.of_static dual
  | "flap" ->
      Dyn.Dual.of_schedule
        (Dyn.Schedule.flap ~base:dual ~epoch_len ~period:d.dyn_period)
  | "churn" ->
      Dyn.Dual.of_schedule
        (Dyn.Schedule.churn ~base:dual ~epoch_len ~rate:d.dyn_churn
           ~seed:d.dyn_seed)
  | "adversary" ->
      Dyn.Dual.of_schedule
        (Dyn.Schedule.adversary ~base:dual ~epoch_len ~seed:d.dyn_seed)
  | other ->
      invalid_arg (field_error "dynamic.kind" (unknown other dynamic_kinds))

let dyn_factory ~dual spec =
  Option.map (fun d () -> build_dyn ~dual d) spec.dynamic

(* --- Parsing -------------------------------------------------------------- *)

(* Every field a scenario object may carry.  Anything else is almost
   certainly a typo silently replaced by a default, so we reject it with
   the full vocabulary instead of guessing. *)
let known_fields =
  [
    "name"; "protocol"; "topology"; "n"; "gprime"; "r"; "extra"; "k"; "fack";
    "fprog"; "seed"; "scheduler"; "arrivals"; "rate"; "gap"; "check";
    "repeat"; "sweep"; "dynamic"; "domains"; "partitions";
  ]

let dynamic_fields = [ "kind"; "epoch"; "period"; "churn"; "seed" ]

let check_fields json =
  match json with
  | Dsim.Json.Obj members -> (
      let unknown =
        List.filter (fun (k, _) -> not (List.mem k known_fields)) members
      in
      match unknown with
      | (k, _) :: _ ->
          Error
            (Printf.sprintf "unknown field %S; known fields: %s" k
               (String.concat ", " known_fields))
      | [] -> (
          let* () =
            match Dsim.Json.member_opt json "dynamic" with
            | None | Some Dsim.Json.Null -> Ok ()
            | Some (Dsim.Json.Obj dyn_members) -> (
                match
                  List.filter
                    (fun (k, _) -> not (List.mem k dynamic_fields))
                    dyn_members
                with
                | (k, _) :: _ ->
                    Error
                      (Printf.sprintf
                         "dynamic: unknown field %S; known fields: %s" k
                         (String.concat ", " dynamic_fields))
                | [] -> Ok ())
            | Some _ -> Error "field \"dynamic\" must be an object"
          in
          match Dsim.Json.member_opt json "sweep" with
          | None | Some Dsim.Json.Null -> Ok ()
          | Some (Dsim.Json.Obj sweep_members) -> (
              match
                List.filter
                  (fun (k, _) -> k <> "param" && k <> "values")
                  sweep_members
              with
              | (k, _) :: _ ->
                  Error
                    (Printf.sprintf
                       "sweep: unknown field %S (a sweep object takes \
                        \"param\" and \"values\")"
                       k)
              | [] -> Ok ())
          | Some _ -> Error "field \"sweep\" must be an object"))
  | _ -> Error "a scenario must be a JSON object"

(* Field parsing only: every constraint on the parsed values is
   [validate]'s. *)
let of_json json =
  let* () = check_fields json in
  let d = default in
  let str key default = Dsim.Json.member_str json key ~default in
  let int key default = Dsim.Json.member_int json key ~default in
  let float key default = Dsim.Json.member_float json key ~default in
  let* name = str "name" d.name in
  let* protocol =
    Result.bind (str "protocol" (protocol_name d.protocol)) protocol_of_string
  in
  let* topology = str "topology" d.topology in
  let* n = int "n" d.n in
  let* gprime = str "gprime" d.gprime in
  let* r = int "r" d.r in
  let* extra = int "extra" d.extra in
  let* k = int "k" d.k in
  let* fack = float "fack" d.fack in
  let* fprog = float "fprog" d.fprog in
  let* seed = int "seed" d.seed in
  let* scheduler = str "scheduler" d.scheduler in
  let* arrivals =
    let* kind = str "arrivals" "batch" in
    match kind with
    | "batch" -> Ok Batch
    | "poisson" -> Result.map (fun r -> Poisson r) (float "rate" 0.01)
    | "staggered" -> Result.map (fun g -> Staggered g) (float "gap" 10.)
    | other ->
        Error
          (field_error "arrivals"
             (unknown other [ "batch"; "poisson"; "staggered" ]))
  in
  let* check =
    match Dsim.Json.member_opt json "check" with
    | None -> Ok d.check
    | Some v -> Dsim.Json.to_bool v
  in
  let* repeat = int "repeat" d.repeat in
  let* dynamic =
    match Dsim.Json.member_opt json "dynamic" with
    | None | Some Dsim.Json.Null -> Ok None
    | Some dyn ->
        let dd = default_dynamic in
        let* dyn_kind = Dsim.Json.member_str dyn "kind" ~default:dd.dyn_kind in
        let* dyn_epoch =
          Dsim.Json.member_float dyn "epoch" ~default:dd.dyn_epoch
        in
        let* dyn_period =
          Dsim.Json.member_int dyn "period" ~default:dd.dyn_period
        in
        let* dyn_churn =
          Dsim.Json.member_float dyn "churn" ~default:dd.dyn_churn
        in
        let* dyn_seed = Dsim.Json.member_int dyn "seed" ~default:dd.dyn_seed in
        Ok (Some { dyn_kind; dyn_epoch; dyn_period; dyn_churn; dyn_seed })
  in
  let* domains = int "domains" d.domains in
  (* [partitions] 0 means auto: one partition per requested domain.
     [validate] resolves it from the *requested* count (never the
     machine's core count), so the resolved spec — a campaign cache key —
     is identical on every host. *)
  let* partitions = int "partitions" d.partitions in
  validate
    {
      name;
      protocol;
      topology;
      n;
      gprime;
      r;
      extra;
      k;
      fack;
      fprog;
      seed;
      scheduler;
      arrivals;
      check;
      repeat;
      dynamic;
      domains;
      partitions;
    }

let of_string text =
  let* json = Dsim.Json.parse text in
  of_json json

let override json key value =
  match json with
  | Dsim.Json.Obj members ->
      Dsim.Json.Obj ((key, value) :: List.remove_assoc key members)
  | other -> other

(* Dotted sweep params ("dynamic.epoch", "dynamic.churn") override inside
   the named sub-object, creating it if absent. *)
let override_path json param value =
  match String.index_opt param '.' with
  | None -> override json param value
  | Some i ->
      let outer = String.sub param 0 i in
      let inner = String.sub param (i + 1) (String.length param - i - 1) in
      let sub =
        match Dsim.Json.member_opt json outer with
        | Some (Dsim.Json.Obj _ as o) -> o
        | _ -> Dsim.Json.Obj []
      in
      override json outer (override sub inner value)

let expand json =
  let* () = check_fields json in
  match Dsim.Json.member_opt json "sweep" with
  | None ->
      let* spec = of_json json in
      Ok [ spec ]
  | Some sweep ->
      let* param = Dsim.Json.member_str sweep "param" ~default:"" in
      if param = "" then Error "sweep: missing \"param\""
      else
        let* values =
          match Dsim.Json.member sweep "values" with
          | Ok v -> Dsim.Json.to_list v
          | Error e -> Error e
        in
        if values = [] then Error "sweep: empty \"values\""
        else begin
          let base = override json "sweep" Dsim.Json.Null in
          let rec go acc = function
            | [] -> Ok (List.rev acc)
            | v :: rest -> (
                match v with
                | Dsim.Json.Number x ->
                    let named =
                      override
                        (override_path base param (Dsim.Json.Number x))
                        "name"
                        (Dsim.Json.String
                           (Printf.sprintf "%s [%s=%s]"
                              (match Dsim.Json.member_opt json "name" with
                              | Some (Dsim.Json.String s) -> s
                              | _ -> "scenario")
                              param
                              (Dsim.Json.to_string (Dsim.Json.Number x))))
                    in
                    let* spec = of_json named in
                    go (spec :: acc) rest
                | _ -> Error "sweep: values must be numbers")
          in
          go [] values
        end

let expand_string text =
  let* json = Dsim.Json.parse text in
  expand json

let load_file path =
  let* text = Dsim.Json.read_file path in
  match expand_string text with
  | Ok specs -> Ok specs
  | Error e -> Error (Printf.sprintf "%s: %s" path e)

(* The fully-resolved spec as JSON: every default baked in, so it is a
   complete content address for campaign job keying (two scenario files
   that elaborate to the same spec share cache entries). *)
let spec_to_json spec =
  let num_i i = Dsim.Json.Number (float_of_int i) in
  Dsim.Json.Obj
    ([
       ("name", Dsim.Json.String spec.name);
       ("protocol", Dsim.Json.String (protocol_name spec.protocol));
       ("topology", Dsim.Json.String spec.topology);
       ("n", num_i spec.n);
       ("gprime", Dsim.Json.String spec.gprime);
       ("r", num_i spec.r);
       ("extra", num_i spec.extra);
       ("k", num_i spec.k);
       ("fack", Dsim.Json.Number spec.fack);
       ("fprog", Dsim.Json.Number spec.fprog);
       ("seed", num_i spec.seed);
       ("scheduler", Dsim.Json.String spec.scheduler);
       ( "arrivals",
         Dsim.Json.String
           (match spec.arrivals with
           | Batch -> "batch"
           | Poisson _ -> "poisson"
           | Staggered _ -> "staggered") );
     ]
    @ (match spec.arrivals with
      | Poisson rate -> [ ("rate", Dsim.Json.Number rate) ]
      | Staggered gap -> [ ("gap", Dsim.Json.Number gap) ]
      | Batch -> [])
    @ [
        ("check", Dsim.Json.Bool spec.check); ("repeat", num_i spec.repeat);
        ("domains", num_i spec.domains);
        ("partitions", num_i spec.partitions);
      ]
    @
    match spec.dynamic with
    | None -> []
    | Some d ->
        [
          ( "dynamic",
            Dsim.Json.Obj
              [
                ("kind", Dsim.Json.String d.dyn_kind);
                ("epoch", Dsim.Json.Number d.dyn_epoch);
                ("period", num_i d.dyn_period);
                ("churn", Dsim.Json.Number d.dyn_churn);
                ("seed", num_i d.dyn_seed);
              ] );
        ])

(* --- Execution ------------------------------------------------------------ *)

(* Timed arrivals for the online runners; [Batch] injects everything at
   time zero. *)
let timed_arrivals spec rng ~n =
  match spec.arrivals with
  | Batch -> Problem.at_time_zero (Problem.random rng ~n ~k:spec.k)
  | Poisson rate -> Problem.poisson_arrivals rng ~n ~k:spec.k ~rate
  | Staggered gap ->
      Problem.staggered_arrivals ~node:(Dsim.Rng.int rng n) ~k:spec.k ~gap

(* [spec] is validated: its vocabulary is known and its engine supports
   its protocol, scheduler, arrivals and dynamics. *)
let run_once spec ~seed =
  let* dual =
    build_dual ~topology:spec.topology ~gprime:spec.gprime ~n:spec.n ~r:spec.r
      ~extra:spec.extra ~seed
  in
  let n = Graphs.Dual.n dual in
  let rng = Dsim.Rng.create ~seed:(seed + 13) in
  match spec.protocol with
  | `Bmmb -> (
      let* policy = build_scheduler spec.scheduler in
      let mk_dyn = dyn_factory ~dual spec in
      let dyn = Option.map (fun mk -> mk ()) mk_dyn in
      (* Epoch windows entered by the end of the run (1 for static). *)
      let epochs_of () = Option.map (fun d -> Dyn.Dual.epoch d + 1) dyn in
      match spec.arrivals with
      | Batch when spec.partitions > 1 ->
          (* Partitioned engine: each partition builds its own wrapper from
             the factory. *)
          let assignment = Problem.random rng ~n ~k:spec.k in
          let res =
            Runner.run_bmmb_pdes ~dual ~fack:spec.fack ~fprog:spec.fprog
              ~policy ~assignment ~seed ~partitions:spec.partitions
              ~domains:spec.domains ?mk_dyn ()
          in
          Ok
            {
              seed;
              complete = res.Runner.pd_complete;
              time = res.Runner.pd_time;
              bound = Some res.Runner.pd_upper_bound;
              bcasts = Some res.Runner.pd_bcasts;
              mean_latency = None;
              violations = 0;
              epochs = None;
            }
      | Batch ->
          let assignment = Problem.random rng ~n ~k:spec.k in
          let res =
            Runner.run_bmmb ~dual ~fack:spec.fack ~fprog:spec.fprog ~policy
              ~assignment ~seed ~check_compliance:spec.check ?dyn ()
          in
          Ok
            {
              seed;
              complete = res.Runner.complete;
              time = res.Runner.time;
              bound = Some res.Runner.upper_bound;
              bcasts = Some res.Runner.bcasts;
              mean_latency = None;
              violations = List.length res.Runner.compliance_violations;
              epochs = epochs_of ();
            }
      | Poisson _ | Staggered _ ->
          let res =
            Runner.run_bmmb_online ~dual ~fack:spec.fack ~fprog:spec.fprog
              ~policy ~arrivals:(timed_arrivals spec rng ~n) ~seed
              ~check_compliance:spec.check ?dyn ()
          in
          Ok
            {
              seed;
              complete = res.Runner.complete';
              time = res.Runner.makespan;
              bound = None;
              bcasts = Some res.Runner.bcasts';
              mean_latency = Some res.Runner.mean_latency;
              violations = List.length res.Runner.compliance_violations';
              epochs = epochs_of ();
            })
  | `Fmmb ->
      (* Batch only: [validate] rejects other arrivals. *)
      let assignment = Problem.random rng ~n ~k:spec.k in
      let res =
        Runner.run_fmmb ~dual ~fprog:spec.fprog ~c:2.
          ~policy:(Amac.Enhanced_mac.minimal_random ())
          ~assignment ~seed ()
      in
      Ok
        {
          seed;
          complete = res.Runner.fmmb.Fmmb.complete;
          time = res.Runner.fmmb.Fmmb.time;
          bound = None;
          bcasts = None;
          mean_latency = None;
          violations = 0;
          epochs = None;
        }
  | `Fmmb_online ->
      let arrivals = timed_arrivals spec rng ~n in
      let tracker = Problem.tracker_timed ~dual arrivals in
      let res =
        Fmmb_online.run ~dual ~fprog:spec.fprog
          ~rng:(Dsim.Rng.create ~seed:(seed + 31))
          ~policy:(Amac.Enhanced_mac.minimal_random ())
          ~c:2. ~arrivals ~tracker ~max_rounds:1_000_000 ()
      in
      let latencies =
        List.filter_map
          (fun (_, _, msg) -> Problem.message_latency tracker ~msg)
          arrivals
      in
      let mean_latency =
        match latencies with
        | [] -> None
        | ls ->
            Some
              (List.fold_left ( +. ) 0. ls /. float_of_int (List.length ls))
      in
      Ok
        {
          seed;
          complete = res.Fmmb_online.complete;
          time = res.Fmmb_online.time;
          bound = None;
          bcasts = None;
          mean_latency;
          violations = 0;
          epochs = None;
        }

let execute spec =
  let* spec = validate spec in
  let rec go acc i =
    if i >= spec.repeat then Ok (List.rev acc)
    else
      let* run = run_once spec ~seed:(spec.seed + i) in
      go (run :: acc) (i + 1)
  in
  go [] 0

(* --- Reporting ------------------------------------------------------------ *)

let report spec runs =
  let buf = Buffer.create 512 in
  let dyn = spec.dynamic <> None in
  Buffer.add_string buf (Printf.sprintf "scenario: %s\n" spec.name);
  Buffer.add_string buf
    (Printf.sprintf "%6s %9s %10s %10s %8s %9s %6s%s\n" "seed" "complete"
       "time" "bound" "bcasts" "latency" "viols"
       (if dyn then Printf.sprintf " %7s" "epochs" else ""));
  List.iter
    (fun r ->
      let opt_f = function Some f -> Printf.sprintf "%.1f" f | None -> "-" in
      let opt_i = function Some i -> string_of_int i | None -> "-" in
      Buffer.add_string buf
        (Printf.sprintf "%6d %9b %10.1f %10s %8s %9s %6d%s\n" r.seed r.complete
           r.time (opt_f r.bound) (opt_i r.bcasts) (opt_f r.mean_latency)
           r.violations
           (if dyn then Printf.sprintf " %7s" (opt_i r.epochs) else "")))
    runs;
  let times = List.map (fun r -> r.time) runs in
  (match times with
  | [] -> ()
  | _ ->
      let s = Dsim.Stats.summarize times in
      Buffer.add_string buf
        (Fmt.str "summary: time %a@." Dsim.Stats.pp_summary s));
  Buffer.contents buf

let result_json spec runs =
  let run_to_json r =
    Dsim.Json.Obj
      ([
         ("seed", Dsim.Json.Number (float_of_int r.seed));
         ("complete", Dsim.Json.Bool r.complete);
         ("time", Dsim.Json.Number r.time);
         ("violations", Dsim.Json.Number (float_of_int r.violations));
       ]
      @ (match r.bound with
        | Some b -> [ ("bound", Dsim.Json.Number b) ]
        | None -> [])
      @ (match r.bcasts with
        | Some b -> [ ("bcasts", Dsim.Json.Number (float_of_int b)) ]
        | None -> [])
      @ (match r.mean_latency with
        | Some l -> [ ("mean_latency", Dsim.Json.Number l) ]
        | None -> [])
      @
      match r.epochs with
      | Some e -> [ ("epochs", Dsim.Json.Number (float_of_int e)) ]
      | None -> [])
  in
  Dsim.Json.Obj
    [
      ("name", Dsim.Json.String spec.name);
      ("runs", Dsim.Json.List (List.map run_to_json runs));
    ]
