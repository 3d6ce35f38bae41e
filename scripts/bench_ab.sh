#!/usr/bin/env bash
# A/B perf gate: the gated benchmarks at a baseline ref, exported with git
# archive into a throwaway directory, against the working tree, both on this
# machine. Each side's test binaries are built once; then PAIRS pairs run
# them, each row on one side right after the other, so that both see the box
# in the same state, with the side that goes first swapping from one pair to
# the next. scripts/bench_compare.py gates every row on its median per-pair
# ns/op ratio and on its counts (allocs/op and the work units rows report).
#
#   BENCH_AB_BASE   baseline git ref (default HEAD~1)
set -euo pipefail
cd "$(dirname "$0")/.."

BASE_REF="${BENCH_AB_BASE:-HEAD~1}"
PAIRS=36
BENCHTIME=100ms
# The gated rows, one list per package: the hot paths of the simulator and
# the Memory hit paths, and the data path's layers over loopback TCP.
declare -A ROWS=(
  [.]='BenchmarkSimulatorThroughput BenchmarkPredictorFaultPath BenchmarkMemoryGetHit
       BenchmarkMemoryGetHitParallel/procs=8 BenchmarkMemoryConcurrentGet BenchmarkMemoryGetZtierHit'
  [internal/remote]='BenchmarkTCPHostScan BenchmarkTCPCall BenchmarkTCPPipelined8'
  [internal/runtime]='BenchmarkScanLoopbackTCP BenchmarkStoreScanLoopbackTCP BenchmarkRandLoopbackTCP'
)

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
mkdir "$TMP/base" "$TMP/pairs"
git archive "$BASE_REF" | tar -x -C "$TMP/base"

side_dir() { if [ "$1" = base ]; then echo "$TMP/base"; else pwd; fi; }

echo "== building $BASE_REF and the working tree =="
for side in base head; do
  for pkg in "${!ROWS[@]}"; do
    (cd "$(side_dir "$side")" && go test -c -o "$TMP/$side.${pkg//\//_}.test" "./$pkg")
  done
done

for ((i = 1; i <= PAIRS; i++)); do
  echo "== pair $i of $PAIRS =="
  order="base head"
  if ((i % 2 == 0)); then order="head base"; fi
  for pkg in "${!ROWS[@]}"; do
    for row in ${ROWS[$pkg]}; do
      for side in $order; do
        (cd "$(side_dir "$side")/$pkg" && "$TMP/$side.${pkg//\//_}.test" -test.run '^$' -test.timeout 2m \
          -test.benchmem -test.benchtime "$BENCHTIME" -test.bench "^$row\$") >> "$TMP/pairs/$i.$side"
      done
    done
  done
done
python3 scripts/bench_compare.py "$TMP/pairs"
