#!/usr/bin/env python3
"""Gate a change on alternating pairs of benchmark runs.

    bench_compare.py PAIRDIR

PAIRDIR holds one `go test -bench -benchmem` output per side of each pair:
N.base and N.head for pairs N = 1, 2, ... (scripts/bench_ab.sh writes them,
swapping which side runs first from one pair to the next). Every row both
sides report is gated on two things:

  - time: the median over the pairs of head ns/op / base ns/op, and the
    share of pairs in which head was slower. A median above 1 + THRESHOLD
    fails where head was slower in at least SLOWER of the pairs: a median
    that noise pushes over the threshold seldom has that many behind it;
  - work: allocs/op and each count unit in WORK, the median of each side's
    pairs. A count that moves the worse way by more than its unit's
    tolerance fails, whatever the time says.

A row only one side reports is warned about and skipped: a baseline from an
older commit predates newer benchmarks, and a new row's allocations are
pinned by a tier-1 test. Exit status: 0 clean, 1 regression, 2 usage/data
error.
"""
import argparse
import os
import statistics
import sys

from bench2json import parse

# The growth of the median ratio that fails a row, and the share of pairs
# in which head must be slower for it to. Set from self-vs-self runs on a
# shared 2-core box (BENCH_51_AB.txt): 36 pairs of identical code read
# medians of 0.95-1.05 with quartiles up to ±20 %.
THRESHOLD = 0.10
SLOWER = 0.75

# The count units the rows report, each with its tolerance (a fraction of
# the baseline) and the direction that is worse: +1 growth, -1 shrinkage.
# A count scheduling moves gets a tolerance; the others are held exactly.
WORK = {
    "allocs/op": (0.0, +1),
    "reads/page": (0.05, +1),    # socket reads a page: ±1 % between runs
    "writes/page": (0.01, +1),   # socket writes a page of a train
    "wire-B/page": (0.01, +1),   # wire bytes a store costs: ±0.5 %
    "frames/write": (0.05, -1),  # frames a socket write carries: ±3 %
    "stores/read": (0.75, -1),   # two goroutines' shares: 0.5-1.4
}


def load(path):
    try:
        with open(path) as f:
            rows, _, _ = parse(f)
    except OSError as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    return {r["name"]: r["metrics"] for r in rows}


def load_pairs(pairdir):
    """The pairs in PAIRDIR, as a list of (base rows, head rows)."""
    pairs = []
    while True:
        n = len(pairs) + 1
        base, head = (os.path.join(pairdir, f"{n}.{side}") for side in ("base", "head"))
        if not os.path.exists(base) and not os.path.exists(head):
            break
        pairs.append((load(base), load(head)))
    if not pairs:
        print(f"bench_compare: no pairs in {pairdir} (want 1.base, 1.head, ...)",
              file=sys.stderr)
        sys.exit(2)
    return pairs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def gate(name, pairs):
    """The row's printed line and its failures."""
    ratios = [h[name]["ns/op"] / b[name]["ns/op"] for b, h in pairs]
    ratio = statistics.median(ratios)
    lo, hi = quartiles(ratios)
    slower = sum(r > 1 for r in ratios)
    failures = []
    if ratio > 1 + THRESHOLD and slower >= SLOWER * len(ratios):
        failures.append(f"time: median ratio {ratio:.3f} > {1 + THRESHOLD:.2f} "
                        f"(slower in {slower}/{len(ratios)} pairs)")
    counts = []
    for unit, (tol, worse) in WORK.items():
        if unit not in pairs[0][0][name] or unit not in pairs[0][1][name]:
            continue
        b = statistics.median(p[0][name].get(unit, 0.0) for p in pairs)
        h = statistics.median(p[1][name].get(unit, 0.0) for p in pairs)
        counts.append(f"{unit} {b:g}->{h:g}")
        if worse * (h - b) > tol * b:
            failures.append(f"{unit}: {b:g} -> {h:g} (tolerance {tol:.0%})")
    line = (f"{name:<40} {ratio:>6.3f} {lo:>6.3f}-{hi:<6.3f} "
            f"{slower:>3}/{len(ratios):<3} {', '.join(counts)}")
    return line, failures


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("pairdir")
    args = ap.parse_args()
    pairs = load_pairs(args.pairdir)

    def everywhere(name, side):
        return all("ns/op" in p[side].get(name, {}) for p in pairs)

    names = set(pairs[0][0]) | set(pairs[0][1])
    rows = sorted(n for n in names if everywhere(n, 0) and everywhere(n, 1))
    for n in sorted(names - set(rows)):
        print(f"bench_compare: WARNING: {n} is not in every run of both sides; "
              "skipping", file=sys.stderr)
    if not rows:
        print("bench_compare: no row in every run of both sides; nothing to gate",
              file=sys.stderr)
        sys.exit(2)

    print(f"{len(pairs)} pairs; ratio = head ns/op / base ns/op, median and "
          "quartiles; slower = pairs in which head was slower")
    print(f"{'benchmark':<40} {'ratio':>6} {'quartiles':^13} {'slower':>7} work (base->head)")
    failures = []
    for name in rows:
        line, fails = gate(name, pairs)
        print(line)
        failures += [f"{name}: {f}" for f in fails]
    if failures:
        print("\nREGRESSIONS:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print(f"\nOK: every median ratio within {THRESHOLD:.0%}, no count "
          "beyond its tolerance")


if __name__ == "__main__":
    main()
