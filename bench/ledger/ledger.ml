(* bench/ledger: one benchmark process.

     ledger.exe run   --workload W --seed S [--scale full|tiny] [--out DIR]
     ledger.exe trace --workload W --seed S [--scale full|tiny] [--out DIR]

   [run] does the workload with tracing off: setup, every simulation and
   every output check, then prints one JSON line (per-simulation wall
   times, setup time, failures, the exact counts).  [trace] does the same
   workload with spans recorded around every call into a layer and a
   monotonic clock injected into each engine, then runs the layer cases
   and prints the per-layer metrics.  run.py drives both, times whole
   processes and turns them into BENCHMARK.json's metrics. *)

let started = Clock.now ()
let workloads = [ "fig1_sweep"; "fig1_audited"; "mega_grid" ]

let usage () =
  prerr_endline
    "usage: ledger.exe (run|trace) --workload W --seed S [--scale full|tiny] \
     [--out DIR]";
  exit 2

type opts = {
  mode : string;
  workload : string;
  seed : int;
  tiny : bool;
  out : string;
}

let parse argv =
  let rec go o = function
    | "--workload" :: w :: rest -> go { o with workload = w } rest
    | "--seed" :: s :: rest -> (
        match int_of_string_opt s with
        | Some seed -> go { o with seed } rest
        | None -> usage ())
    | "--scale" :: "full" :: rest -> go { o with tiny = false } rest
    | "--scale" :: "tiny" :: rest -> go { o with tiny = true } rest
    | "--out" :: d :: rest -> go { o with out = d } rest
    | [] -> o
    | _ -> usage ()
  in
  match argv with
  | mode :: rest when mode = "run" || mode = "trace" ->
      let o =
        go { mode; workload = ""; seed = 0; tiny = false; out = "." } rest
      in
      if not (List.mem o.workload workloads) then usage ();
      o
  | _ -> usage ()

(* The barrier-bound line case's length: about 43k windows of a few
   events each, so the barrier dominates. *)
let mega_line_n = 100_000

type done_ =
  | Fig1 of Fig1.spec list
  | Mega of Mega.input * Mmb.Runner.pdes_result

let run_workload ctx o =
  let size = if o.tiny then Fig1.tiny else Fig1.full in
  match o.workload with
  | "fig1_sweep" -> Fig1 (Fig1.run ctx ~size ~seed:o.seed ~audited:false)
  | "fig1_audited" -> Fig1 (Fig1.run ctx ~size ~seed:o.seed ~audited:true)
  | _ ->
      let side = if o.tiny then 30 else 1000 in
      let input, r = Mega.run ctx ~side ~seed:o.seed in
      Mega (input, r)

let host () =
  Dsim.Json.Obj
    [
      ( "recommended_domain_count",
        Dsim.Json.Number (float_of_int (Exec.Pool.available_parallelism ())) );
      ("ocaml_version", Dsim.Json.String Sys.ocaml_version);
      ("wall_clock", Dsim.Json.String Clock.wall_kind);
      ("cpu_clock", Dsim.Json.String Clock.cpu_kind);
    ]

let emit o ~workload_s ~tally extra =
  print_endline
    (Dsim.Json.to_string
       (Dsim.Json.Obj
          ([
             ("workload", Dsim.Json.String o.workload);
             ("seed", Dsim.Json.Number (float_of_int o.seed));
             ("workload_s", Dsim.Json.Number workload_s);
             ("host", host ());
           ]
          @ Tally.fields tally @ extra)))

let ratio a b = if b = 0. then 0. else a /. b

(* Per-layer metrics of a traced run, by BENCHMARK.json name.  A layer
   the workload bypasses reads 0. *)
let layer_metrics o ctx log root done_ =
  let t = ctx.Ctx.tally in
  let i name = float_of_int (Tally.int t name) in
  let f name = Tally.float t name in
  let selfs = Span_log.self_times log in
  let case name g = Span_log.within log name (fun _ -> g ()) in
  let gc = Gc.quick_stat () in
  let events = i "dsim.events" in
  let heap_ns =
    case "case.heap" (fun () ->
        Cases.heap_replay
          ~depth:(Tally.int t "dsim.heap_high_water")
          ~cancel_ratio:(ratio (i "dsim.cancelled") (i "dsim.pushes"))
          ~ops:(if o.tiny then 20_000 else 2_000_000))
  in
  let plan_ns =
    case "case.mac_sink" (fun () ->
        Cases.mac_sink ~side:(if o.tiny then 4 else 16)
          ~rounds:(if o.tiny then 4 else 60))
  in
  let rcv_ns =
    case "case.bmmb_stub" (fun () ->
        Cases.bmmb_stub ~side:(if o.tiny then 6 else 32)
          ~k:(if o.tiny then 2 else 16)
          ~repeats:(if o.tiny then 1 else 10))
  in
  let sum l = List.fold_left ( +. ) 0. l in
  let specific =
    match done_ with
    | Fig1 specs ->
        (* The bound the BMMB runners compute after each run. *)
        let bounds_s =
          case "case.bounds" (fun () ->
              Cases.bounds ~fack:Fig1.fack ~fprog:Fig1.fprog
                (List.filter_map
                   (fun s ->
                     match s.Fig1.cell with
                     | Fig1.Line_adv | Grid_rr | Churn_line ->
                         Some (s.Fig1.dual, s.Fig1.assignment)
                     | Online_line | Fmmb_grey -> None)
                   specs))
        in
        let audited_s = sum t.Tally.runs_s in
        let plain_s =
          if o.workload <> "fig1_audited" then audited_s
          else
            (* Plain reference pass over the same specs, measured the
               same way (clock injected), outside the workload's root. *)
            case "case.plain_reference" (fun () ->
                let ref_tally = Tally.create () in
                let ref_ctx =
                  {
                    ctx with
                    Ctx.tally = ref_tally;
                    log = Some (Span_log.create ());
                    root = None;
                  }
                in
                List.iter (Fig1.simulate ref_ctx ~audited:false) specs;
                sum ref_tally.Tally.runs_s)
        in
        let sink_s = audited_s -. plain_s in
        [
          ("graphs.partition_s", 0.);
          ("mmb.bounds_s", bounds_s);
          (* Engine time: the sink-free simulations without the bound. *)
          ("dsim.events_per_s", ratio events (plain_s -. bounds_s));
          ("obs.sink_s", sink_s);
          ("obs.overhead_ratio", ratio sink_s plain_s);
          ("pdes.barrier_us_per_window", 0.);
          ("pdes.cpu_per_wall", 0.);
          ("pdes.parallel_efficiency", 0.);
          ("pdes.grid_parallel_efficiency", 0.);
          ("pdes.grid_cpu_per_wall", 0.);
          ("pdes.ns_per_event", 0.);
          ("pdes.remote_ratio", 0.);
        ]
    | Mega (input, r) ->
        let partition_s =
          case "case.partition" (fun () ->
              Cases.partition input.Mega.dual ~parts:Mega.partitions)
        in
        let bounds_s =
          case "case.bounds" (fun () ->
              Cases.bounds ~fack:Mega.fack ~fprog:Mega.fprog
                [ (input.Mega.dual, input.Mega.assignment) ])
        in
        let r2, d2, cpu2 =
          case "case.pdes_host_domains" (fun () ->
              Mega.pdes_run input ~domains:Mega.host_domains)
        in
        if
          r2.Mmb.Runner.pd_events <> r.Mmb.Runner.pd_events
          || r2.Mmb.Runner.pd_windows <> r.Mmb.Runner.pd_windows
        then
          Tally.verdict t ~what:"2-domain rerun"
            (Some "events or windows differ from the 1-domain run");
        (* [run_bmmb_pdes] partitions G' and computes the bound serially
           before its event loop; the engine-only figures leave both
           out, using the probes above. *)
        let serial_s = partition_s +. bounds_s in
        let d1 = f "pdes.run_s" -. serial_s in
        let d2 = d2 -. serial_s and cpu2 = cpu2 -. serial_s in
        let line_d2, line_cpu2, line_d1, line_windows =
          case "case.pdes_line" (fun () ->
              Mega.line_case ctx
                ~n:(if o.tiny then 2_000 else mega_line_n)
                ~seed:o.seed)
        in
        let host = float_of_int Mega.host_domains in
        [
          ("graphs.partition_s", partition_s);
          ("mmb.bounds_s", bounds_s);
          ("dsim.events_per_s", ratio events d1);
          ("obs.sink_s", 0.);
          ("obs.overhead_ratio", 0.);
          ( "pdes.barrier_us_per_window",
            ratio ((line_d2 -. (line_d1 /. host)) *. 1e6)
              (float_of_int line_windows) );
          ("pdes.cpu_per_wall", ratio line_cpu2 line_d2);
          ("pdes.parallel_efficiency", ratio line_d1 (host *. line_d2));
          ("pdes.grid_parallel_efficiency", ratio d1 (host *. d2));
          ("pdes.grid_cpu_per_wall", ratio cpu2 d2);
          ("pdes.ns_per_event", ratio (d1 *. 1e9) events);
          ( "pdes.remote_ratio",
            ratio (i "pdes.remote_deliveries") (i "pdes.deliveries") );
        ]
  in
  [
    ("graphs.gen_s", Span_log.self_total selfs "graphs.gen");
    ("graphs.cut_edges", i "graphs.cut_edges");
    ("dsim.events", events);
    ("dsim.pushes", i "dsim.pushes");
    ("dsim.cancelled", i "dsim.cancelled");
    ("dsim.heap_high_water", i "dsim.heap_high_water");
    ("dsim.heap_ns_per_op", heap_ns);
    ("amac.deliver_s", f "amac.deliver_s");
    ("amac.ack_s", f "amac.ack_s");
    ("amac.watchdog_s", f "amac.watchdog_s");
    ("amac.abort_gc_s", f "amac.abort_gc_s");
    ("amac.bcasts", i "amac.bcasts");
    ("amac.rcvs", i "amac.rcvs");
    ("amac.acks", i "amac.acks");
    ("amac.watchdog_events", i "amac.watchdog.events");
    ("amac.forced", i "amac.forced");
    ( "amac.watchdog_useful_ratio",
      ratio (i "amac.forced") (i "amac.watchdog.events") );
    ("amac.plan_ns_per_bcast", plan_ns);
    ("mmb.bmmb_ns_per_rcv", rcv_ns);
    ("mmb.fmmb_s", f "mmb.fmmb_s");
    ("mmb.fmmb_rounds", i "mmb.fmmb_rounds");
    ("dyn.epochs", i "dyn.epochs");
    ("dyn.refreshes", i "dyn.refreshes");
    ("obs.metrics_export_s", f "obs.metrics_export_s");
    ("obs.tracing_write_s", f "obs.tracing_write_s");
    ("obs.provenance_write_s", f "obs.provenance_write_s");
    ("obs.trace_entries", i "obs.trace_entries");
    ("pdes.windows", i "pdes.windows");
    ("pdes.events_per_window", ratio events (i "pdes.windows"));
    ("pdes.remote_deliveries", i "pdes.remote_deliveries");
    ( "gc.top_heap_mb",
      float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6 );
    ("gc.major_collections", float_of_int gc.Gc.major_collections);
    ("trace.coverage", Span_log.coverage log root);
  ]
  @ specific

let () =
  let o = parse (List.tl (Array.to_list Sys.argv)) in
  let tally = Tally.create () in
  if o.mode = "run" then begin
    let ctx = { Ctx.tally; log = None; root = None; out_dir = o.out } in
    ignore (run_workload ctx o);
    emit o ~workload_s:(Clock.now () -. started) ~tally []
  end
  else begin
    let log = Span_log.create () in
    let root = Span_log.add log ~sim:(-1) ~parent:None ~start:started ~stop:started "workload" in
    let ctx = { Ctx.tally; log = Some log; root = Some root; out_dir = o.out } in
    let done_ = run_workload ctx o in
    Span_log.close root;
    let metrics = layer_metrics o ctx log root done_ in
    Span_log.write log
      ~path:(Filename.concat o.out ("spans-" ^ o.workload ^ ".jsonl"));
    emit o ~workload_s:(Span_log.duration root) ~tally
      [
        ( "metrics",
          Dsim.Json.Obj
            (List.map (fun (k, v) -> (k, Dsim.Json.Number v)) metrics) );
      ]
  end
