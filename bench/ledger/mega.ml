(* The million-node workload: one partitioned BMMB run per process on
   the horizon-parallel engine ([Runner.run_bmmb_pdes]) over a 1000x1000
   grid, G' = G, k = 2, Fack 8, Fprog 1, P = 8 partitions.  Setup and the
   fused event loop dominate; the barrier does little (a few hundred fat
   windows).

   The measured run maps the partitions onto one domain.  On a 2-core
   host shared with other tenants, the wall time of a 2-domain run swings
   by 10-20 % (and a barrier-bound line's by 3x) with the host's vCPU
   scheduling, far beyond any bound a regression check could use, while
   a 1-domain run repeats within a few per cent.  The partition count
   fixes the execution, so both do the same work; the traced run times
   the 2-domain mapping and the barrier-bound line beside it. *)

let fack = 8.
let fprog = 1.
let k = 2
let partitions = 8
let domains = 1
let host_domains = 2

type input = {
  dual : Graphs.Dual.t;
  assignment : Mmb.Problem.assignment;
  seed : int;
}

let setup ctx ~side ~seed =
  Ctx.span ctx ~parent:ctx.Ctx.root "setup" (fun parent ->
      let dual =
        Ctx.setup ctx ~parent "graphs.gen" (fun () ->
            Graphs.Dual.of_equal (Graphs.Gen.grid ~rows:side ~cols:side))
      in
      let assignment =
        Ctx.setup ctx ~parent "mmb.problem" (fun () ->
            Mmb.Problem.random (Dsim.Rng.create ~seed)
              ~n:(Graphs.Dual.n dual) ~k)
      in
      { dual; assignment; seed })

(* One partitioned run on [domains] worker domains; returns the result,
   its wall time and the process CPU it used. *)
let pdes_run input ~domains =
  let c0 = Clock.cpu () in
  let r, dt =
    Clock.timed (fun () ->
        Mmb.Runner.run_bmmb_pdes ~dual:input.dual ~fack ~fprog
          ~policy:(Amac.Schedulers.random_compliant ())
          ~assignment:input.assignment ~seed:input.seed ~partitions ~domains
          ())
  in
  (r, dt, Clock.cpu () -. c0)

let check input (r : Mmb.Runner.pdes_result) =
  let expected = Graphs.Dual.n input.dual * k in
  if not r.Mmb.Runner.pd_complete then Some "incomplete"
  else if not r.Mmb.Runner.pd_within_bound then
    Some
      (Printf.sprintf "time %g over bound %g" r.Mmb.Runner.pd_time
         r.Mmb.Runner.pd_upper_bound)
  else if r.Mmb.Runner.pd_deliveries <> expected then
    Some
      (Printf.sprintf "%d deliveries, expected n*k = %d"
         r.Mmb.Runner.pd_deliveries expected)
  else None

let run ctx ~side ~seed =
  let tally = ctx.Ctx.tally in
  let input = setup ctx ~side ~seed in
  let minor0 = Gc.minor_words () in
  let r, dt, cpu =
    Ctx.span ctx ~sim:0 ~parent:ctx.Ctx.root "pdes.run" (fun _ ->
        pdes_run input ~domains)
  in
  Tally.addf tally "gc.minor_words" (Gc.minor_words () -. minor0);
  Tally.run tally dt;
  Tally.addf tally "pdes.run_s" dt;
  Tally.addf tally "pdes.cpu_s" cpu;
  (* The fused engine is its own MAC and heap: its counters stand in for
     the serial engine's on this path. *)
  Tally.add tally "dsim.events" r.Mmb.Runner.pd_events;
  Tally.max_ tally "dsim.heap_high_water" r.Mmb.Runner.pd_heap_high_water;
  Tally.add tally "amac.bcasts" r.Mmb.Runner.pd_bcasts;
  Tally.add tally "amac.rcvs" r.Mmb.Runner.pd_rcvs;
  Tally.add tally "amac.acks" r.Mmb.Runner.pd_acks;
  Tally.add tally "pdes.windows" r.Mmb.Runner.pd_windows;
  Tally.add tally "pdes.deliveries" r.Mmb.Runner.pd_deliveries;
  Tally.add tally "pdes.remote_deliveries" r.Mmb.Runner.pd_remote;
  Tally.add tally "graphs.cut_edges" r.Mmb.Runner.pd_cut_edges;
  Ctx.span ctx ~sim:0 ~parent:ctx.Ctx.root "bench.check" (fun _ ->
      Tally.verdict tally ~what:"partitioned run" (check input r));
  (input, r)

(* The barrier-bound case: the same run on a line of [n] nodes (tens of
   thousands of windows of a few events each), on [host_domains] and on
   one domain.  Returns the 2-domain wall time, its process CPU, the
   1-domain wall time and the window count, each without the serial
   partition and bound the runner computes before its event loop; a run
   that fails its checks or differs between the two mappings is a failed
   verdict. *)
let line_case ctx ~n ~seed =
  let dual = Graphs.Dual.of_equal (Graphs.Gen.line n) in
  (* The line's barrier work grows with the origins' eccentricity, so the
     origins sit at the two ends and the seed drives delivery times. *)
  let input = { dual; assignment = [ (0, 0); (n - 1, 1) ]; seed } in
  let serial_s =
    Cases.partition dual ~parts:partitions
    +. Cases.bounds ~fack ~fprog [ (dual, input.assignment) ]
  in
  let r2, d2, cpu2 = pdes_run input ~domains:host_domains in
  let r1, d1, _ = pdes_run input ~domains:1 in
  let d2 = d2 -. serial_s and cpu2 = cpu2 -. serial_s in
  let d1 = d1 -. serial_s in
  let verdict =
    match check input r2 with
    | Some e -> Some e
    | None ->
        if
          r1.Mmb.Runner.pd_events <> r2.Mmb.Runner.pd_events
          || r1.Mmb.Runner.pd_windows <> r2.Mmb.Runner.pd_windows
        then Some "events or windows differ between 1 and 2 domains"
        else None
  in
  Tally.verdict ctx.Ctx.tally ~what:"line barrier case" verdict;
  (d2, cpu2, d1, r2.Mmb.Runner.pd_windows)
