(* Byte pins for the three observability writers: the Perfetto document
   (Obs.Tracing.write_file), the provenance JSONL (Obs.Provenance.to_file)
   and the metrics JSONL (Obs.Observer.to_file) of two small runs, each
   compared byte for byte with its committed file under test/golden/.

   - line_adv:  adversarial scheduler on a 10-node line; every timestamp
                is an integer, so numbers take the integer path.
   - grid_rr:   random_compliant scheduler on a 4x4 r-restricted grid;
                delays are drawn inside [0, Fack], so timestamps are not
                integers and numbers take the %.17g path.

   Each test writes its files under _tracing_test/sink_golden/ (relative
   to the test's working directory, _build/default/test) before comparing.
   When a change to a writer's output is intentional, copy those files
   over the committed ones. *)

let out_dir = Filename.concat "_tracing_test" "sink_golden"

let read_file path =
  match Dsim.Json.read_file path with
  | Ok text -> text
  | Error e -> Alcotest.fail e

let meta ~scheduler ~n ~k ~seed =
  [
    ("protocol", Dsim.Json.String "bmmb");
    ("scheduler", Dsim.Json.String scheduler);
    ("n", Dsim.Json.Number (float_of_int n));
    ("k", Dsim.Json.Number (float_of_int k));
    ("seed", Dsim.Json.Number (float_of_int seed));
  ]

(* One observed BMMB run, its three files written through the public
   writers into [out_dir]; returns their names. *)
let write_run ~name ~dual ~fack ~fprog ~scheduler ~policy ~k ~seed =
  let n = Graphs.Dual.n dual in
  let rng = Dsim.Rng.create ~seed in
  let assignment = Mmb.Problem.random rng ~n ~k in
  let meta = meta ~scheduler ~n ~k ~seed in
  let obs = Obs.Observer.create ~n ~dual ~fack ~fprog ~meta () in
  let res =
    Obs.Run.bmmb ~dual ~fack ~fprog ~policy ~assignment ~seed
      ~check_compliance:true ~obs ()
  in
  let tr =
    match res.Mmb.Runner.trace with
    | Some tr -> tr
    | None -> Alcotest.fail "run retained no trace"
  in
  Alcotest.(check bool) "run completes" true res.Mmb.Runner.complete;
  Exec.Cache.mkdir_p out_dir;
  let path suffix = Filename.concat out_dir (name ^ suffix) in
  let col = Obs.Tracing.Sim.create ~n () in
  Dsim.Trace.iter tr (Obs.Tracing.Sim.on_entry col);
  Obs.Tracing.write_file ~meta (Obs.Tracing.Sim.finish col)
    ~path:(path ".trace.json");
  let prov = Obs.Provenance.create ~meta ~n () in
  Dsim.Trace.iter tr (Obs.Provenance.on_entry prov);
  Obs.Provenance.to_file prov ~path:(path ".provenance.jsonl");
  Obs.Observer.to_file obs (path ".metrics.jsonl");
  List.map (( ^ ) name) [ ".trace.json"; ".provenance.jsonl"; ".metrics.jsonl" ]

let check_against_golden files =
  List.iter
    (fun f ->
      let actual_path = Filename.concat out_dir f in
      let expected = read_file (Filename.concat "golden" f) in
      let actual = read_file actual_path in
      if not (String.equal expected actual) then begin
        let el = String.length expected and al = String.length actual in
        let rec first i =
          if i >= el || i >= al then i
          else if Char.equal expected.[i] actual.[i] then first (i + 1)
          else i
        in
        let at = first 0 in
        let around s =
          let lo = max 0 (at - 40) in
          String.sub s lo (min (String.length s - lo) 80)
        in
        Alcotest.failf
          "%s differs from test/golden/%s at byte %d (sizes %d vs %d):\n\
          \  expected: ...%s...\n\
          \  actual:   ...%s..."
          actual_path f at el al (around expected) (around actual)
      end)
    files

let test_line_adversarial () =
  check_against_golden
    (write_run ~name:"line_adv"
       ~dual:(Graphs.Dual.of_equal (Graphs.Gen.line 10))
       ~fack:8. ~fprog:1. ~scheduler:"adversarial"
       ~policy:(Amac.Schedulers.adversarial ())
       ~k:2 ~seed:3)

let test_grid_random_compliant () =
  let g = Graphs.Gen.grid ~rows:4 ~cols:4 in
  let dual =
    Graphs.Dual.r_restricted_random (Dsim.Rng.create ~seed:11) ~g ~r:2
      ~extra:(2 * Graphs.Graph.n g)
  in
  check_against_golden
    (write_run ~name:"grid_rr" ~dual ~fack:20. ~fprog:1.
       ~scheduler:"random_compliant"
       ~policy:(Amac.Schedulers.random_compliant ())
       ~k:2 ~seed:5)

let suite =
  [
    ( "sink-golden",
      [
        Alcotest.test_case "adversarial line: trace, provenance, metrics"
          `Quick test_line_adversarial;
        Alcotest.test_case "r-restricted grid: trace, provenance, metrics"
          `Quick test_grid_random_compliant;
      ] );
  ]
