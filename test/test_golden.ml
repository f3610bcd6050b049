(* Determinism regression: canonical runs must reproduce their committed
   traces byte-for-byte.  A diff here means a seeded code path changed
   behavior — intentional changes regenerate the golden file (see
   test/golden/README in the file header below). *)

let golden_two_line () =
  let dual = Graphs.Dual.two_line ~d:5 in
  let assignment =
    [ (Graphs.Dual.two_line_a ~d:5 1, 0); (Graphs.Dual.two_line_b ~d:5 1, 1) ]
  in
  let res =
    Mmb.Runner.run_bmmb ~dual ~fack:8. ~fprog:1.
      ~policy:(Mmb.Lower_bound.two_line_policy ~d:5)
      ~assignment ~seed:0 ~check_compliance:true ()
  in
  match res.Mmb.Runner.trace with
  | Some tr -> Dsim.Trace_io.to_jsonl tr
  | None -> Alcotest.fail "no trace"

(* FMMB over the continuous backend: rounds built from abort and timers
   on [Standard_mac] under the Generous round-sync policy, the MAC path
   the ledger's FMMB cell takes.  Pins every bcast, rcv and abort of the
   three stage engines (each restarts its clock and instance uids). *)
let golden_fmmb_continuous () =
  let n = 16 in
  let rng = Dsim.Rng.create ~seed:3 in
  let dual =
    Graphs.Dual.grey_zone_connected rng ~n ~width:2.5 ~height:2.5 ~c:2.
      ~p:0.4 ~max_tries:500
  in
  let assignment = [ (0, 0); (7, 1); (12, 2) ] in
  let trace = Dsim.Trace.create () in
  let tracker = Mmb.Problem.tracker ~dual assignment in
  let params = Mmb.Fmmb.default_params ~n ~k:(List.length assignment) ~c:2. in
  let res =
    Mmb.Fmmb.run ~dual ~fprog:1. ~rng
      ~policy:(Amac.Enhanced_mac.minimal_random ())
      ~params ~assignment ~tracker ~trace
      ~backend:(Mmb.Fmmb.Continuous Amac.Round_sync.Generous) ()
  in
  if not res.Mmb.Fmmb.complete then Alcotest.fail "fmmb run incomplete";
  Dsim.Trace_io.to_jsonl trace

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Compare with the committed file at [path], naming the first
   differing line on failure. *)
let check_golden ~path actual =
  let expected = read_file path in
  if String.equal expected actual then ()
  else begin
    let el = String.split_on_char '\n' expected in
    let al = String.split_on_char '\n' actual in
    let rec first_diff i = function
      | e :: es, a :: as_ ->
          if e <> a then Some (i, e, a) else first_diff (i + 1) (es, as_)
      | [], a :: _ -> Some (i, "<eof>", a)
      | e :: _, [] -> Some (i, e, "<eof>")
      | [], [] -> None
    in
    match first_diff 1 (el, al) with
    | Some (line, e, a) ->
        Alcotest.failf
          "golden trace diverged at line %d:\n  expected: %s\n  actual:   %s\n\
           (regenerate test/%s if intentional)"
          line e a path
    | None -> Alcotest.fail "golden trace length mismatch"
  end

let test_two_line_golden () =
  check_golden ~path:"golden/two_line_d5_seed0.jsonl" (golden_two_line ())

let test_fmmb_continuous_golden () =
  check_golden ~path:"golden/fmmb_continuous_seed3.jsonl"
    (golden_fmmb_continuous ())

let test_golden_is_compliant () =
  (* The committed trace itself must satisfy the five axioms. *)
  match Dsim.Trace_io.read_file ~path:"golden/two_line_d5_seed0.jsonl" with
  | Error e -> Alcotest.fail e
  | Ok entries ->
      let tr = Dsim.Trace.create () in
      List.iter
        (fun { Dsim.Trace.time; event } -> Dsim.Trace.record tr ~time event)
        entries;
      let dual = Graphs.Dual.two_line ~d:5 in
      Alcotest.(check int) "compliant" 0
        (List.length
           (Amac.Compliance.audit ~dual ~fack:8. ~fprog:1. tr))

let suite =
  [
    ( "golden",
      [
        Alcotest.test_case "two-line adversary trace is stable" `Quick
          test_two_line_golden;
        Alcotest.test_case "committed trace is axiom-compliant" `Quick
          test_golden_is_compliant;
        Alcotest.test_case "continuous-backend fmmb trace is stable" `Quick
          test_fmmb_continuous_golden;
      ] );
  ]
