#!/usr/bin/env bash
# A/B perf gate: benchmark the gated hot paths at a baseline ref (default
# HEAD~1), exported into a throwaway directory, AND at the current working
# tree, then compare the two runs with scripts/bench_compare.py. Two passes:
#
#   - the root package's hot paths (simulator, predictor, Memory hits);
#   - the data path's layer benchmarks over loopback TCP in internal/remote
#     and internal/runtime: the read scan, store scan and random reads through
#     a Memory, the host's read scan, one round trip and eight pipelined. The
#     three read rows must allocate nothing (--zero-alloc). Its rows share
#     the box's cores with the agents they talk to and spread more than the
#     hot paths: their ns/op threshold is 25%.
#
# Unlike the recorded BENCH_1.json baseline — numbers from the machine of
# record, useless as a gate anywhere else — both sides here run back to
# back on the SAME machine, so the 15% ns/op threshold and the allocs/op
# gate hold on laptops and CI runners alike. Benchmarks the baseline commit
# doesn't have yet (e.g. a just-added sweep) are warned about and skipped
# by the comparator; the --zero-alloc prefix still gates them on the fresh
# side. The script exits non-zero if either pass fails.
#
#   BENCH_AB_BASE   baseline git ref            (default HEAD~1)
#   BENCH_AB_TIME   -benchtime for both sides   (default 1s)
#   BENCH_AB_COUNT  -count repetitions per side (default 3; the comparator
#                   takes best-of-N ns/op, worst-of-N allocs/op)
set -euo pipefail
cd "$(dirname "$0")/.."

BASE_REF="${BENCH_AB_BASE:-HEAD~1}"
BENCHTIME="${BENCH_AB_TIME:-1s}"
COUNT="${BENCH_AB_COUNT:-3}"
# The gated hot paths only — figure drivers are too noisy to A/B.
PATTERN='BenchmarkSimulatorThroughput|BenchmarkPredictorFaultPath|BenchmarkMemoryGetHit|BenchmarkMemoryConcurrentGet|BenchmarkMemoryGetZtierHit|BenchmarkMemoryEnsembleGetHit'
HEADLINE='BenchmarkSimulatorThroughput,BenchmarkPredictorFaultPath,BenchmarkMemoryGetHit,BenchmarkMemoryConcurrentGet,BenchmarkMemoryGetHitParallel/procs=8,BenchmarkMemoryGetZtierHit,BenchmarkMemoryEnsembleGetHit'
LAYERS='BenchmarkScanLoopbackTCP,BenchmarkStoreScanLoopbackTCP,BenchmarkRandLoopbackTCP,BenchmarkTCPHostScan,BenchmarkTCPCall,BenchmarkTCPPipelined8'
LAYER_PATTERN="^(${LAYERS//,/|})\$"

run_bench() { # $1 = source dir, $2 = output json
  (cd "$1" && go test -run '^$' -benchmem -count "$COUNT" -benchtime "$BENCHTIME" \
    -bench "$PATTERN" .) | python3 scripts/bench2json.py > "$2"
}

run_layers() { # $1 = source dir, $2 = output json
  (cd "$1" && go test -run '^$' -benchmem -count "$COUNT" -benchtime "$BENCHTIME" \
    -bench "$LAYER_PATTERN" ./internal/remote ./internal/runtime) | python3 scripts/bench2json.py > "$2"
}

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "== A side: $BASE_REF =="
mkdir "$TMP/base"
git archive "$BASE_REF" | tar -x -C "$TMP/base"
run_bench "$TMP/base" "$TMP/base.json"
run_layers "$TMP/base" "$TMP/base_layers.json"

echo "== B side: working tree =="
run_bench . "$TMP/head.json"
run_layers . "$TMP/head_layers.json"

status=0
echo "== hot paths =="
python3 scripts/bench_compare.py "$TMP/base.json" "$TMP/head.json" \
  --headline "$HEADLINE" \
  --zero-alloc BenchmarkMemoryGetHit \
  --zero-alloc BenchmarkMemoryGetZtierHit \
  --zero-alloc BenchmarkMemoryEnsembleGetHit || status=$?
echo "== data path layers =="
python3 scripts/bench_compare.py "$TMP/base_layers.json" "$TMP/head_layers.json" \
  --headline "$LAYERS" --threshold 0.25 \
  --zero-alloc BenchmarkScanLoopbackTCP \
  --zero-alloc BenchmarkTCPHostScan \
  --zero-alloc BenchmarkRandLoopbackTCP || status=$?
exit "$status"
