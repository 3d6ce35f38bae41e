#!/usr/bin/env bash
# Benchmark ledger: runs the benchmark suite and records the numbers to a new
# BENCH_<n>.json (BENCH_OUT, default BENCH_1.json), the perf trajectory across
# PRs. It refuses to write over a file that exists, and names the next free
# one to pass instead.
#
# Three passes with different timing budgets:
#   - hot-path microbenchmarks get a long -benchtime for stable ns/op, and
#     beside them the three reference rows (BenchmarkRef*: a 4 KB copy, an
#     uncontended mutex, a fixed hash loop), the box's yardstick; the record
#     also names the CPU, nproc and GOMAXPROCS (scripts/bench2json.py);
#   - BenchmarkFigures runs every registered figure once (one
#     sub-benchmark per figure; every iteration is a complete experiment,
#     so 1x is already meaningful and keeps the suite fast);
#   - the per-layer benchmarks that live in their layer's package
#     (internal/pagemap: Get and Put+Delete at 16 k keys under churn;
#     internal/remote: one TCP round trip, eight pipelined, read frames 1, 2
#     and 4 to a socket write, a host's read scan over TCP with the socket
#     reads a page took, and a store scan's host side over in-process
#     agents, read + 64 B store + range writeback; internal/runtime: a scan over a link that
#     answers 0, 50 us, 200 us and 1 ms late, with the pages the host keeps in
#     flight at each, a store scan over two such links, 64 B and 4 KB stores,
#     with the wire bytes a page costs, the two scans side by side on two
#     goroutines, and bench/'s read and store scans over loopback TCP with the
#     frames a socket write carried and the late prefetch wait per page, and
#     its random reads there; the
#     scans also report the mean depth the host allowed beside the mean pages
#     in flight). That pass runs three times: its rows spread with the box.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${BENCH_OUT:-BENCH_1.json}"
if [ -e "$OUT" ]; then
  last=$(ls BENCH_*.json | sed -n 's/^BENCH_\([0-9]*\)\.json$/\1/p' | sort -n | tail -1)
  echo "bench.sh: $OUT exists; record to a new file: BENCH_OUT=BENCH_$((last + 1)).json" >&2
  exit 2
fi
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

go test -run '^$' -benchmem -count 1 -benchtime 2s \
  -bench 'BenchmarkRef|BenchmarkSimulatorThroughput|BenchmarkPredictorFaultPath|BenchmarkFindTrend|BenchmarkMajorityVote|BenchmarkPrefetcherComparison|BenchmarkMemoryGetHit|BenchmarkMemoryConcurrentGet|BenchmarkMemoryGetZtierHit' \
  . | tee "$TMP"

go test -run '^$' -benchmem -count 1 -benchtime 1x \
  -bench 'BenchmarkFigures' \
  . | tee -a "$TMP"

go test -run '^$' -benchmem -count 1 -benchtime 2s \
  -bench 'BenchmarkMap' \
  ./internal/pagemap | tee -a "$TMP"

go test -run '^$' -benchmem -count 1 -benchtime 2s \
  -bench 'BenchmarkTCP|BenchmarkHostRangeWriteback' \
  ./internal/remote | tee -a "$TMP"

go test -run '^$' -benchmem -count 3 -benchtime 2s \
  -bench 'BenchmarkScanDelayedLink|BenchmarkStoreScanDelayedLink|BenchmarkMixDelayedLink|BenchmarkScanLoopbackTCP|BenchmarkStoreScanLoopbackTCP|BenchmarkRandLoopbackTCP' \
  ./internal/runtime | tee -a "$TMP"

python3 scripts/bench2json.py < "$TMP" > "$OUT"
echo "wrote $OUT"
