(* Regression verdicts between two runs of the ledger benchmark.

     mmb_perf_diff BASE CAND

   BASE and CAND are the saved stdout of two
   [python3 bench/ledger/run.py --workload W] runs; the metrics, their
   bounds and directions come from BENCHMARK.json, read from the current
   directory (the repository root, as run.py requires).  Verdicts are
   Obs.Perf_diff's.  Exit 0 when nothing regressed (incomparable
   findings included: they are printed, not verdicts), 1 on a
   regression, 2 on usage errors or unreadable input. *)

let usage =
  {|usage: mmb_perf_diff BASE CAND

Judge the ledger run saved in CAND against the one saved in BASE (each the
stdout of bench/ledger/run.py --workload W) by the bounds in BENCHMARK.json.
Run from the repository root.  Exit 0: no regression; 1: a regression;
2: unreadable input.
|}

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 2)
    fmt

let read path =
  match Dsim.Json.read_file path with
  | Ok text -> text
  | Error e -> die "mmb_perf_diff: %s" e

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--help" ] -> print_string usage
  | [ base; cand ]
    when not (List.exists (String.starts_with ~prefix:"-") [ base; cand ]) -> (
      match
        Obs.Perf_diff.judge ~spec:(read "BENCHMARK.json") ~base:(read base)
          ~cand:(read cand)
      with
      | Error e -> die "mmb_perf_diff: %s" e
      | Ok findings ->
          List.iter print_endline (Obs.Perf_diff.to_lines findings);
          if Obs.Perf_diff.regressions findings > 0 then exit 1)
  | _ -> die "%s" (String.trim usage)
