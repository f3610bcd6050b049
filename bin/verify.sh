#!/bin/sh
# Tier-1 verify in one command (see ROADMAP.md).
#
#   bin/verify.sh           analyzers + build + tests + smokes + ledger
#                           selftest + comparator contract
#   bin/verify.sh --quick   analyzers + build + tests (skip the rest)
#   bin/verify.sh --full    default + randomized-hash runtest + analyzer
#                           fixture suites
#   bin/verify.sh --tsan    multi-domain exec tests under ThreadSanitizer
#                           (needs an OCaml >= 5.2 tsan opam switch; set
#                           MMB_TSAN_SWITCH to name it explicitly; SKIPs
#                           gracefully when none exists)
#
# Every gate runs even after a failure; a one-line-per-gate summary
# table prints at the end and the exit code is 0 only if no gate failed.
cd "$(dirname "$0")/.."

MODE=default
case "${1:-}" in
  "") ;;
  --quick) MODE=quick ;;
  --full)  MODE=full ;;
  --tsan)  MODE=tsan ;;
  *) echo "usage: bin/verify.sh [--quick|--full|--tsan]" >&2; exit 2 ;;
esac

SUMMARY=""
FAILED=0

gate() {
  name=$1; shift
  echo "== $name"
  if "$@"; then
    SUMMARY="${SUMMARY}PASS  ${name}
"
  else
    SUMMARY="${SUMMARY}FAIL  ${name}
"
    FAILED=1
  fi
}

skip() {
  echo "== $1 (skipped: $2)"
  SUMMARY="${SUMMARY}SKIP  $1 ($2)
"
}

# Bad-input gate: each line below is an mmb_sim argument list that must
# be rejected as a usage error (cmdliner's exit 124, not 125) whose
# message names the offending spec field, never an uncaught exception.
bad_inputs() {
  err=$(mktemp)
  status=0
  while IFS= read -r args; do
    # One line is one argument list: word splitting is intended.
    # shellcheck disable=SC2086
    _build/default/bin/mmb_sim.exe $args > /dev/null 2> "$err"
    rc=$?
    if [ "$rc" -ne 124 ] || grep -q "uncaught exception" "$err" ||
      ! grep -q 'field "' "$err"; then
      echo "not a usage error naming a field (exit $rc): mmb_sim $args"
      cat "$err"
      status=1
    else
      echo "rejected: mmb_sim $args -> $(head -n 1 "$err")"
    fi
  done <<EOF
run -n 0
run -g r-restricted -r 0
run --fprog 30
run --dynamic churn --epoch 0
run --dynamic churn --churn-rate 2
run --dynamic flap --dyn-period 0
run --partitions 2 --scheduler eager
online --rate 0
sweep --param r --values 0 -g r-restricted
EOF
  rm -f "$err"
  return $status
}

if [ "$MODE" = tsan ]; then
  # ThreadSanitizer instrumentation is a compiler feature (OCaml >= 5.2
  # built with tsan support); it lives in its own opam switch so the
  # default build stays uninstrumented.  lib/exec (campaign pool) and
  # lib/pdes (horizon-parallel engine) are the two domain-spawning
  # subsystems, so their suites are the ones worth instrumenting.
  SW="${MMB_TSAN_SWITCH:-$(opam switch list -s 2>/dev/null | grep -i tsan | head -1)}"
  if [ -z "$SW" ]; then
    skip "tsan exec tests" "no tsan opam switch found"
    skip "tsan pdes tests" "no tsan opam switch found"
  else
    echo "using tsan switch: $SW"
    gate "tsan build (switch $SW)" \
      opam exec --switch "$SW" -- dune build --build-dir _build_tsan test/test_main.exe
    gate "tsan exec tests" \
      opam exec --switch "$SW" -- dune exec --build-dir _build_tsan \
      test/test_main.exe -- test exec
    gate "tsan pdes tests" \
      opam exec --switch "$SW" -- dune exec --build-dir _build_tsan \
      test/test_main.exe -- test pdes
  fi
else
  gate "dune build @lint @check @race" dune build @lint @check @race
  # Typed-tree hot-path gate.  The alias depends on the library builds,
  # so the .cmt files it reads exist even on a cold tree; a file whose
  # .cmt still cannot be produced is a per-file "SKIP <file>: <reason>"
  # diagnostic on stderr from mmb_hot, never a gate failure.
  gate "dune build @hot" dune build @hot
  gate "dune build" dune build
  gate "dune runtest" dune runtest

  if [ "$MODE" != quick ]; then
    # Ledger selftest: every workload, the mega path included, runs at a
    # tiny scale with no failure and reports every metric BENCHMARK.json
    # names.  Timings at that scale mean nothing and are discarded.
    gate "ledger selftest (run.py --selftest)" \
      python3 bench/ledger/run.py --selftest

    # Trace smoke: a tiny run must produce Perfetto, provenance and
    # metrics exports that self-validate (schema + per-event shape), and
    # its --check replay of the compliance checker must pass.
    gate "trace smoke (run --check --trace-out/--provenance/--metrics + trace-validate)" \
      sh -c 'T=$(mktemp -d) && trap "rm -rf $T" 0 &&
        dune exec bin/mmb_sim.exe -- run -t line -n 10 -k 2 --seed 3 --check \
          --trace-out "$T/trace.json" --provenance "$T/prov.jsonl" \
          --metrics "$T/metrics.jsonl" > "$T/out" &&
        grep -q "^compliance: OK" "$T/out" &&
        dune exec bin/mmb_sim.exe -- trace-validate "$T/trace.json" \
          "$T/prov.jsonl" "$T/metrics.jsonl"'
    # Churn smoke: the streaming checker pins each instance's epoch G'
    # at Bcast; the run must pass --check and export valid metrics.
    gate "churn smoke (run --dynamic churn --check --metrics + trace-validate)" \
      sh -c 'T=$(mktemp -d) && trap "rm -rf $T" 0 &&
        dune exec bin/mmb_sim.exe -- run -t line -n 20 -k 3 --seed 2 -g r-restricted \
          --dynamic churn --check --metrics "$T/metrics.jsonl" > "$T/out" &&
        grep -q "^compliance: OK" "$T/out" &&
        grep -q "churned-deliveries=" "$T/out" &&
        dune exec bin/mmb_sim.exe -- trace-validate "$T/metrics.jsonl"'

    gate "bad-input gate (invalid flags: exit 124 naming the field)" \
      bad_inputs

    # Comparator contract: one real fig1_sweep ledger run judged against
    # itself must pass every end-to-end metric, with nothing
    # incomparable.  This pins the format run.py prints to the one
    # mmb_perf_diff reads.
    gate "perf-diff contract (fig1_sweep ledger run vs itself)" \
      sh -c 'T=$(mktemp -d) && trap "rm -rf $T" 0 &&
        python3 bench/ledger/run.py --workload fig1_sweep --seconds 0 \
          > "$T/run" &&
        dune exec bin/mmb_perf_diff.exe -- "$T/run" "$T/run" > "$T/diff" &&
        cat "$T/diff" && ! grep -q INCOMPARABLE "$T/diff" &&
        python3 -c "import json, sys
want = {m[\"name\"] for m in json.load(open(\"BENCHMARK.json\"))[\"end_to_end\"]}
got = {l.split()[1] for l in open(sys.argv[1]) if l.startswith(\"PASS \")}
sys.exit(not want <= got)" "$T/diff"'
  else
    skip "ledger selftest (run.py --selftest)" "--quick"
    skip "trace smoke (run --check --trace-out/--provenance/--metrics + trace-validate)" "--quick"
    skip "churn smoke (run --dynamic churn --check --metrics + trace-validate)" "--quick"
    skip "bad-input gate (invalid flags: exit 124 naming the field)" "--quick"
    skip "perf-diff contract (fig1_sweep ledger run vs itself)" "--quick"
  fi

  if [ "$MODE" = full ]; then
    # Randomized hash seeds catch order-dependent Hashtbl traversals
    # that default hashing hides.
    gate "OCAMLRUNPARAM=R dune runtest --force" \
      sh -c 'OCAMLRUNPARAM=R dune runtest --force'
    # The four analyzers' fixture suites, straight from the alias the
    # fixtures hang off.
    gate "dune build @fixtures" dune build @fixtures
    # The dynamic-network suite on its own, plus a campaign determinism
    # probe: the churn T-sweep must produce identical reports whether it
    # runs on 1 worker or 4 (lib/dyn derives every epoch's edge set
    # purely from (seed, epoch), so job order cannot matter).
    gate "dyn suite (test dyn)" \
      sh -c 'cd _build/default/test && ./test_main.exe test dyn'
    # --no-cache reads neither the cache nor a resume manifest that an
    # earlier run left under ./_campaign/, so both invocations execute
    # every cell.
    gate "campaign determinism (churn_line --jobs 1 vs 4)" \
      sh -c 'T=$(mktemp -d) && trap "rm -rf $T" 0 &&
        dune exec bin/mmb_sim.exe -- campaign scenarios/churn_line.json \
          --jobs 1 --no-cache > "$T/out1" 2> "$T/err1" &&
        dune exec bin/mmb_sim.exe -- campaign scenarios/churn_line.json \
          --jobs 4 --no-cache > "$T/out2" 2> "$T/err2" &&
        cat "$T/err1" "$T/err2" &&
        ! grep -q " [1-9][0-9]* resumed" "$T/err1" "$T/err2" &&
        cmp "$T/out1" "$T/out2"'
    # --no-cache must run every cell even where a completed campaign's
    # resume manifest (_campaign/ under the working directory) exists,
    # and the fresh run must print the same report.
    gate "campaign --no-cache reruns every cell (churn_line, same directory)" \
      sh -c 'T=$(mktemp -d) && trap "rm -rf $T" 0 &&
        dune build bin/mmb_sim.exe && R=$(pwd) &&
        cd "$T" &&
        "$R/_build/default/bin/mmb_sim.exe" campaign \
          "$R/scenarios/churn_line.json" --jobs 1 > out1 2> err1 &&
        "$R/_build/default/bin/mmb_sim.exe" campaign \
          "$R/scenarios/churn_line.json" --no-cache --jobs 2 > out2 2> err2 &&
        cat err2 &&
        grep -Eq " ([0-9]+) cells .* \1 ran, 0 cached, 0 resumed" err2 &&
        cmp out1 out2'
    # The partitioned engine's core promise: with the partition count P
    # fixed, the worker-domain count must not change a single trace byte.
    # The 4-domain run also gets randomized hash seeds so any
    # order-dependent Hashtbl traversal on the merge path would diverge.
    gate "pdes determinism (--partitions 4: --domains 1 vs 4 trace bytes)" \
      sh -c 'T=$(mktemp -d) && trap "rm -rf $T" 0 &&
        dune exec bin/mmb_sim.exe -- run -t line -n 200 -k 3 --fack 8 \
          --seed 3 --partitions 4 --domains 1 --trace-out "$T/d1.jsonl" \
          > /dev/null &&
        OCAMLRUNPARAM=R dune exec bin/mmb_sim.exe -- run -t line -n 200 \
          -k 3 --fack 8 --seed 3 --partitions 4 --domains 4 \
          --trace-out "$T/d4.jsonl" > /dev/null &&
        cmp "$T/d1.jsonl" "$T/d4.jsonl"'
    # The same promise on a grid, whose partitions share long cut
    # boundaries and exchange many remote deliveries per window (the run
    # test/golden/pdes_grid_p4.jsonl pins).
    gate "pdes determinism (grid --partitions 4: --domains 1 vs 4 trace bytes)" \
      sh -c 'T=$(mktemp -d) && trap "rm -rf $T" 0 &&
        dune exec bin/mmb_sim.exe -- run -t grid -n 1600 -k 3 --fack 8 \
          --seed 3 --partitions 4 --domains 1 --trace-out "$T/d1.jsonl" \
          > /dev/null &&
        OCAMLRUNPARAM=R dune exec bin/mmb_sim.exe -- run -t grid -n 1600 \
          -k 3 --fack 8 --seed 3 --partitions 4 --domains 4 \
          --trace-out "$T/d4.jsonl" > /dev/null &&
        cmp "$T/d1.jsonl" "$T/d4.jsonl"'
  else
    skip "OCAMLRUNPARAM=R dune runtest --force" "run with --full"
    skip "dune build @fixtures" "run with --full"
    skip "dyn suite (test dyn)" "run with --full"
    skip "campaign determinism (churn_line --jobs 1 vs 4)" "run with --full"
    skip "campaign --no-cache reruns every cell (churn_line, same directory)" "run with --full"
    skip "pdes determinism (--partitions 4: --domains 1 vs 4 trace bytes)" "run with --full"
    skip "pdes determinism (grid --partitions 4: --domains 1 vs 4 trace bytes)" "run with --full"
  fi
fi

echo
echo "---- verify ($MODE) ----"
printf '%s' "$SUMMARY"
if [ "$FAILED" -eq 0 ]; then
  echo "verify: all green"
else
  echo "verify: FAILED"
  exit 1
fi
