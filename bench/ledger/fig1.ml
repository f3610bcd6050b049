(* The Figure-1 workloads: many small serial simulations cycling through
   the paper's five cells, with every sink off ([fig1_sweep]) or every
   sink on ([fig1_audited]).  Both take the same spec list from the same
   seed, so the difference between them is the sinks' cost. *)

type cell = Line_adv | Grid_rr | Churn_line | Online_line | Fmmb_grey

let cells = [| Line_adv; Grid_rr; Churn_line; Online_line; Fmmb_grey |]

let cell_name = function
  | Line_adv -> "line_adversarial"
  | Grid_rr -> "grid_r_restricted"
  | Churn_line -> "line_churn"
  | Online_line -> "line_online"
  | Fmmb_grey -> "fmmb_grey_zone"

type size = {
  specs : int;
  line_n : int;
  line_k : int;
  grid_side : int;
  grid_k : int;
  fmmb_n : int;
  fmmb_k : int;
}

(* Full scale: 300 simulations, 60 per cell.  A [fig1_sweep] process
   then runs for about two to three seconds on a 2-core x86-64 host, long
   enough that per-process start-up noise is a small share of it, while
   several processes still fit in one measured run; [fig1_audited] runs
   the same 300 with every sink on, about five times as long. *)
let full =
  {
    specs = 300;
    line_n = 64;
    line_k = 10;
    grid_side = 8;
    grid_k = 6;
    fmmb_n = 24;
    fmmb_k = 3;
  }

let tiny =
  {
    specs = 10;
    line_n = 12;
    line_k = 2;
    grid_side = 4;
    grid_k = 2;
    fmmb_n = 12;
    fmmb_k = 2;
  }

let fack = 20.
let fprog = 1.
let churn_epoch = 10.
let churn_rate = 0.3
let online_rate = 0.05

type spec = {
  index : int;
  cell : cell;
  seed : int;
  dual : Graphs.Dual.t;
  assignment : Mmb.Problem.assignment;
  arrivals : Mmb.Problem.timed_assignment;
}

let mix seed i = ((seed * 1_000_003) + (i * 7_919) + 17) land 0x3fff_ffff

(* Inputs of spec [i].  Its network is part of the workload's definition:
   drawn from [i] alone, so that every seed asks for comparable work.
   The assignment, arrival times, churn schedule and the simulation's
   own RNG are drawn from the workload seed, except in the FMMB cell:
   FMMB's round count swings by half with the message origins, and as
   the costliest cell it sets run_p90_ms, so its whole instance is drawn
   from [i] too. *)
let build_spec ctx ~size ~seed ~parent i =
  let cell = cells.(i mod Array.length cells) in
  let seed = mix (if cell = Fmmb_grey then 0 else seed) i in
  let rng = Dsim.Rng.create ~seed:(mix 0 i) in
  let dual =
    Ctx.setup ctx ~sim:i ~parent "graphs.gen" (fun () ->
        match cell with
        | Line_adv | Online_line ->
            Graphs.Dual.of_equal (Graphs.Gen.line size.line_n)
        | Grid_rr ->
            let g =
              Graphs.Gen.grid ~rows:size.grid_side ~cols:size.grid_side
            in
            Graphs.Dual.r_restricted_random rng ~g ~r:2
              ~extra:(2 * Graphs.Graph.n g)
        | Churn_line ->
            Graphs.Dual.arbitrary_random rng
              ~g:(Graphs.Gen.line size.line_n)
              ~extra:size.line_n
        | Fmmb_grey ->
            let side = sqrt (float_of_int size.fmmb_n /. 3.) in
            Graphs.Dual.grey_zone_connected rng ~n:size.fmmb_n ~width:side
              ~height:side ~c:2. ~p:0.4 ~max_tries:1000)
  in
  let n = Graphs.Dual.n dual in
  let rng = Dsim.Rng.create ~seed in
  Ctx.setup ctx ~sim:i ~parent "mmb.problem" (fun () ->
      let assignment, arrivals =
        match cell with
        | Line_adv | Churn_line -> (Mmb.Problem.random rng ~n ~k:size.line_k, [])
        | Grid_rr -> (Mmb.Problem.random rng ~n ~k:size.grid_k, [])
        | Online_line ->
            ( [],
              Mmb.Problem.poisson_arrivals rng ~n ~k:size.line_k
                ~rate:online_rate )
        | Fmmb_grey -> (Mmb.Problem.singleton rng ~n ~k:size.fmmb_k, [])
      in
      { index = i; cell; seed; dual; assignment; arrivals })

let build_specs ctx ~size ~seed =
  Ctx.span ctx ~parent:ctx.Ctx.root "setup" (fun parent ->
      List.init size.specs (build_spec ctx ~size ~seed ~parent))

let fresh_dyn spec =
  match spec.cell with
  | Churn_line ->
      Some
        (Dyn.Dual.of_schedule
           (Dyn.Schedule.churn ~base:spec.dual ~epoch_len:churn_epoch
              ~rate:churn_rate ~seed:spec.seed))
  | _ -> None

(* --- sinks (audited runs only) ------------------------------------------ *)

let path ctx name = Filename.concat ctx.Ctx.out_dir name

(* Run one sink writer inside a span, adding its wall time to
   [<name>_s]. *)
let sink ctx ~parent name f =
  Ctx.span ctx ~parent name (fun _ ->
      let (), dt = Clock.timed f in
      Tally.addf ctx.Ctx.tally (name ^ "_s") dt)

let write_metrics ctx ~parent obs =
  sink ctx ~parent "obs.metrics_export" (fun () ->
      Obs.Observer.to_file obs (path ctx "metrics.jsonl"))

let write_timeline ctx ~parent col =
  sink ctx ~parent "obs.tracing_write" (fun () ->
      Obs.Tracing.write_file (Obs.Tracing.Sim.finish col)
        ~path:(path ctx "trace.json"))

let write_provenance ctx ~parent prov =
  sink ctx ~parent "obs.provenance_write" (fun () ->
      Obs.Provenance.to_file prov ~path:(path ctx "provenance.jsonl"))

(* Timeline and provenance of a retained BMMB trace, replayed post hoc as
   [mmb_sim run --trace-out --provenance] does; each replay counts as
   part of its writer. *)
let write_trace_files ctx ~parent ~n tr =
  sink ctx ~parent "obs.tracing_write" (fun () ->
      let col = Obs.Tracing.Sim.create ~n () in
      Dsim.Trace.iter tr (Obs.Tracing.Sim.on_entry col);
      Obs.Tracing.write_file (Obs.Tracing.Sim.finish col)
        ~path:(path ctx "trace.json"));
  sink ctx ~parent "obs.provenance_write" (fun () ->
      let prov = Obs.Provenance.create ~n () in
      Dsim.Trace.iter tr (Obs.Provenance.on_entry prov);
      Obs.Provenance.to_file prov ~path:(path ctx "provenance.jsonl"));
  Tally.add ctx.Ctx.tally "obs.trace_entries" (Dsim.Trace.length tr)

(* --- one simulation ---------------------------------------------------- *)

let check_bmmb ~audited ~monitor (r : Mmb.Runner.bmmb_result) =
  if not r.Mmb.Runner.complete then Some "incomplete"
  else if not r.Mmb.Runner.within_bound then
    Some
      (Printf.sprintf "time %g over bound %g" r.Mmb.Runner.time
         r.Mmb.Runner.upper_bound)
  else if r.Mmb.Runner.duplicate_deliveries > 0 then Some "duplicate delivery"
  else if audited && r.Mmb.Runner.compliance_violations <> [] then
    Some "compliance violation"
  else if audited && r.Mmb.Runner.spec_violations <> [] then
    Some ("spec violation: " ^ List.hd r.Mmb.Runner.spec_violations)
  else if monitor > 0 then Some "streaming monitor violation"
  else None

let simulate ctx ~audited spec =
  let tally = ctx.Ctx.tally in
  let sim_no = spec.index in
  Ctx.span ctx ~sim:sim_no ~parent:ctx.Ctx.root "sim" (fun sim_span ->
      let n = Graphs.Dual.n spec.dual in
      let monitor = ref 0 in
      let dyn, obs =
        Ctx.setup ctx ~sim:sim_no ~parent:sim_span "obs.inputs" (fun () ->
            let dyn = fresh_dyn spec in
            let obs =
              if not audited then None
              else
                match spec.cell with
                | Fmmb_grey -> Some (Obs.Observer.create ~n ())
                | _ ->
                    Some
                      (Obs.Observer.create ~n ~dual:spec.dual ~fack ~fprog
                         ?dyn
                         ~on_violation:(fun _ _ -> incr monitor)
                         ())
            in
            (dyn, obs))
      in
      let engine = ref None in
      let setup sim =
        engine := Some sim;
        if Ctx.traced ctx then Dsim.Sim.set_wall_clock sim Clock.now
      in
      let before = Obs.Global.snapshot () in
      let minor0 = Gc.minor_words () in
      let t0 = Clock.now () in
      let verdict =
        match spec.cell with
        | Line_adv | Grid_rr | Churn_line ->
            let policy =
              match spec.cell with
              | Grid_rr -> Amac.Schedulers.random_compliant ()
              | _ -> Amac.Schedulers.adversarial ()
            in
            let r =
              Ctx.span ctx ~sim:sim_no ~parent:sim_span "mmb.runner"
                (fun call ->
                  let r =
                    Obs.Run.bmmb ~dual:spec.dual ~fack ~fprog ~policy
                      ~assignment:spec.assignment ~seed:spec.seed
                      ~check_compliance:audited ?dyn ?obs ~setup ()
                  in
                  Option.iter (Ctx.note_categories ctx ~parent:call) !engine;
                  r)
            in
            (match (obs, r.Mmb.Runner.trace) with
            | Some o, Some tr ->
                write_metrics ctx ~parent:sim_span o;
                write_trace_files ctx ~parent:sim_span ~n tr
            | _ -> ());
            Option.iter
              (fun d ->
                Tally.add tally "dyn.epochs" (Dyn.Dual.epoch d + 1);
                Tally.add tally "dyn.refreshes" (Dyn.Dual.refreshes d))
              dyn;
            fun () -> check_bmmb ~audited ~monitor:!monitor r
        | Online_line ->
            (* The online runner returns no trace, so this cell gets the
               observer and the post-hoc audit but no timeline or
               provenance file; duplicate deliveries are visible only
               through the observer's deliver counter. *)
            let r =
              Ctx.span ctx ~sim:sim_no ~parent:sim_span "mmb.runner"
                (fun call ->
                  let r =
                    Obs.Run.bmmb_online ~dual:spec.dual ~fack ~fprog
                      ~policy:(Amac.Schedulers.random_compliant ())
                      ~arrivals:spec.arrivals ~seed:spec.seed
                      ~check_compliance:audited ?obs ~setup ()
                  in
                  Option.iter (Ctx.note_categories ctx ~parent:call) !engine;
                  r)
            in
            Option.iter (write_metrics ctx ~parent:sim_span) obs;
            let k = List.length spec.arrivals in
            fun () ->
              if not r.Mmb.Runner.complete' then Some "incomplete"
              else if r.Mmb.Runner.compliance_violations' <> [] then
                Some "compliance violation"
              else if !monitor > 0 then Some "streaming monitor violation"
              else
                Option.bind obs (fun o ->
                    let delivers =
                      Obs.Metrics.value
                        (Obs.Metrics.counter (Obs.Observer.metrics o)
                           "events.deliver")
                    in
                    if delivers <> n * k then
                      Some
                        (Printf.sprintf "%d deliveries, expected %d" delivers
                           (n * k))
                    else None)
        | Fmmb_grey ->
            let files =
              if audited then
                Some
                  ( Obs.Tracing.Sim.create ~n (),
                    Obs.Provenance.create ~n () )
              else None
            in
            let attach =
              Option.map
                (fun (col, prov) tr ->
                  Obs.Tracing.Sim.attach col tr;
                  Obs.Provenance.attach prov tr)
                files
            in
            let r, dt =
              Ctx.span ctx ~sim:sim_no ~parent:sim_span "mmb.fmmb" (fun _ ->
                  Clock.timed (fun () ->
                      Obs.Run.fmmb ~dual:spec.dual ~fprog ~c:2.
                        ~policy:(Amac.Enhanced_mac.minimal_random ())
                        ~backend:
                          (Mmb.Fmmb.Continuous Amac.Round_sync.Generous)
                        ~assignment:spec.assignment ~seed:spec.seed ?obs
                        ?attach ()))
            in
            Tally.addf tally "mmb.fmmb_s" dt;
            let f = r.Mmb.Runner.fmmb in
            Tally.add tally "mmb.fmmb_rounds" f.Mmb.Fmmb.total_rounds;
            Option.iter (write_metrics ctx ~parent:sim_span) obs;
            Option.iter
              (fun (col, prov) ->
                write_timeline ctx ~parent:sim_span col;
                write_provenance ctx ~parent:sim_span prov)
              files;
            fun () ->
              if not f.Mmb.Fmmb.complete then Some "incomplete"
              else if not f.Mmb.Fmmb.mis_valid then Some "invalid MIS"
              else if r.Mmb.Runner.duplicate_deliveries' > 0 then
                Some "duplicate delivery"
              else None
      in
      let dt = Clock.now () -. t0 in
      Tally.addf tally "gc.minor_words" (Gc.minor_words () -. minor0);
      Tally.run tally dt;
      Tally.note_global tally
        (Obs.Global.diff ~before ~after:(Obs.Global.snapshot ()));
      Ctx.span ctx ~sim:sim_no ~parent:sim_span "bench.check" (fun _ ->
          Tally.verdict tally
            ~what:(Printf.sprintf "spec %d (%s)" spec.index (cell_name spec.cell))
            (verdict ())))

let run ctx ~size ~seed ~audited =
  let specs = build_specs ctx ~size ~seed in
  List.iter (simulate ctx ~audited) specs;
  specs
