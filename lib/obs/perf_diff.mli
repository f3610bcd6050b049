(** Regression verdicts between two runs of the ledger benchmark.

    {!judge} reads three texts: [BENCHMARK.json] and the saved stdout of
    two [bench/ledger/run.py --workload W] runs, each a host line
    [{"host": {...}}] followed by a result line
    [{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}].
    It reads no file itself.

    - {b End-to-end metrics.} Each one present in either run is {!Pass}
      or {!Regression}, judged by its relative change in its own
      [better] direction against its own [bound] from [BENCHMARK.json].
      A change exactly at the bound passes.
    - {b Failure share.} A larger [failed / attempted] in the candidate
      is a {!Regression}.
    - {b Exact counts.} A per-layer metric with unit [count] that
      differs ([dsim.events], [pdes.windows], ...) is {!Incomparable}:
      the two runs did different work.  Other per-layer metrics have no
      bound and are not judged.
    - {b Otherwise incomparable.} Different host records (then nothing
      else is judged), a metric missing on one side, a base value that
      is [<= 0] or non-finite, or a non-finite candidate value.

    [bin/mmb_perf_diff] is the CLI. *)

type status = Pass | Regression | Incomparable

type finding = { f_id : string; f_status : status; f_detail : string }

val judge :
  spec:string -> base:string -> cand:string -> (finding list, string) result
(** Findings in this order: end-to-end metrics (in [BENCHMARK.json]
    order), the failure share, then the exact counts; or the single
    host finding when the hosts differ.  [Error] names the text that is
    not what it should be: [spec] without its metric lists, or a run
    output without a host or result line.  Lines of a run output that
    are not JSON are skipped (a saved stream may carry stderr too); a
    result line with a [NaN] literal is not JSON. *)

val regressions : finding list -> int
val incomparable : finding list -> int

val to_lines : finding list -> string list
(** One line per finding, [STATUS id detail], then a totals line. *)
