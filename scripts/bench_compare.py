#!/usr/bin/env python3
"""Diff a fresh benchmark run against a baseline run and fail on
regressions.

    bench_compare.py BASELINE.json FRESH.json [--threshold 0.15]
                     [--headline NAME,NAME,...] [--zero-alloc PREFIX]

Both files are the scripts/bench2json.py format. The baseline may be the
recorded trajectory file (BENCH_1.json, BENCH_8.json, ...) or — the A/B
mode scripts/bench_ab.sh drives — a fresh run of an older commit on the
SAME machine, which makes the thresholds meaningful on any hardware.

The gate applies to the headline hot-path benchmarks (--headline overrides
the default list):

  - ns/op (or its ratio, below) more than --threshold (default 15%) above
    baseline fails;
  - ANY allocs/op increase fails (the hot path is allocation-free by
    construction; one alloc per op is how it regresses silently);
  - any fresh benchmark whose name starts with a --zero-alloc prefix must
    report 0 allocs/op, baseline or not (this is how brand-new hit-path
    benchmarks are gated before a baseline containing them exists).

Where both files carry the three reference rows (BenchmarkRefCopy4K,
BenchmarkRefMutex, BenchmarkRefHash: a 4 KB copy, an uncontended mutex, a
fixed hash loop, which scripts/bench.sh records with the others), each row is
compared as its ns/op over the geometric mean of its own file's reference
rows, so that a change of box moves both sides alike; the threshold applies
to that ratio. Where either file lacks them (BENCH_1.json ... BENCH_45.json)
the comparison falls back to raw ns/op, and the output says which mode ran.

A headline benchmark missing from either file is WARNED about and skipped
rather than fatal: an A/B baseline built from an older commit predates
newly added benchmarks. Only if NO headline benchmark can be compared at
all is the data considered unusable.

Other shared benchmarks are reported for context but don't gate: figure
drivers run one iteration each, so their ns/op is too noisy to gate on.
Exit status: 0 clean, 1 regression, 2 usage/data error.
"""
import argparse
import json
import math
import sys

HEADLINE = ["BenchmarkSimulatorThroughput", "BenchmarkPredictorFaultPath"]
REFERENCE = ["BenchmarkRefCopy4K", "BenchmarkRefMutex", "BenchmarkRefHash"]


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    # A file may carry -count N repetitions of the same benchmark (the A/B
    # harness runs 3). Reduce duplicates best-of-N: minimum ns/op — the run
    # least disturbed by scheduler noise — and maximum allocs/op, so a
    # single allocating repetition still trips the allocation gate.
    out = {}
    for b in doc.get("benchmarks", []):
        name, m = b["name"], b.get("metrics", {})
        if name not in out:
            out[name] = dict(m)
            continue
        acc = out[name]
        for unit, val in m.items():
            if unit == "allocs/op":
                acc[unit] = max(acc.get(unit, 0.0), val)
            elif unit in acc:
                acc[unit] = min(acc[unit], val)
            else:
                acc[unit] = val
    return out


def reference(rows):
    """The geometric mean of the reference rows' ns/op, or None when a
    reference row is missing."""
    vals = [rows.get(n, {}).get("ns/op") for n in REFERENCE]
    if any(v is None or v <= 0 for v in vals):
        return None
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="allowed fractional growth of ns/op (or of its ratio "
                         "to the reference rows) on headline benchmarks")
    ap.add_argument("--headline", default=",".join(HEADLINE),
                    help="comma-separated gated benchmark names "
                         "(default: %(default)s)")
    ap.add_argument("--zero-alloc", action="append", default=[],
                    metavar="PREFIX",
                    help="fail if any fresh benchmark with this name prefix "
                         "reports allocs/op > 0 (repeatable)")
    args = ap.parse_args()
    headline = [n for n in args.headline.split(",") if n]

    base, fresh = load(args.baseline), load(args.fresh)
    missing = [n for n in headline if n not in base or n not in fresh]
    for n in missing:
        side = "baseline" if n not in base else "fresh run"
        print(f"bench_compare: WARNING: headline benchmark {n} missing from "
              f"{side}; skipping (older baselines predate newer benchmarks)",
              file=sys.stderr)
    gated = [n for n in headline if n not in missing]
    if headline and not gated:
        print("bench_compare: no headline benchmark present in both files; "
              "nothing to gate on", file=sys.stderr)
        sys.exit(2)

    bref, fref = reference(base), reference(fresh)
    if bref and fref:
        unit = "ratio"
        print(f"mode: ratio - each row's ns/op over the geometric mean of "
              f"its file's {', '.join(REFERENCE)} (baseline {bref:.4g} ns, "
              f"fresh {fref:.4g} ns)")
    else:
        bref = fref = 1.0
        unit = "ns/op"
        lacking = " and ".join(p for p, ref in ((args.baseline, reference(base)),
                                                (args.fresh, reference(fresh)))
                               if ref is None)
        print(f"mode: raw ns/op - {lacking} lacks the reference rows "
              f"{', '.join(REFERENCE)}")

    failures = []
    print(f"{'benchmark':<42} {'base ' + unit:>12} {'fresh ' + unit:>12} "
          f"{'delta':>8}  {'allocs':>13}")
    for name in sorted(set(base) & set(fresh)):
        b, f = base[name], fresh[name]
        bn, fn = b.get("ns/op"), f.get("ns/op")
        ba, fa = b.get("allocs/op", 0.0), f.get("allocs/op", 0.0)
        if bn is None or fn is None:
            continue
        bn, fn = bn / bref, fn / fref
        delta = (fn - bn) / bn if bn else 0.0
        gate = name in gated
        verdict = ""
        if gate:
            if delta > args.threshold:
                verdict = f"FAIL {unit} +{delta:.1%} > {args.threshold:.0%}"
            if fa > ba:
                verdict = (verdict + "; " if verdict else "") + \
                    f"FAIL allocs/op {ba:g} -> {fa:g}"
            if verdict:
                failures.append(f"{name}: {verdict}")
        mark = " *" if gate else ""
        print(f"{name:<42} {bn:>12.4g} {fn:>12.4g} {delta:>+7.1%} "
              f"{ba:>6g}->{fa:<6g}{mark}")
    print("(* gated headline benchmark)")

    for prefix in args.zero_alloc:
        hits = 0
        for name, m in sorted(fresh.items()):
            if not name.startswith(prefix) or "allocs/op" not in m:
                continue
            hits += 1
            if m["allocs/op"] > 0:
                failures.append(
                    f"{name}: FAIL allocs/op {m['allocs/op']:g} != 0 "
                    f"(--zero-alloc {prefix})")
        if hits == 0:
            print(f"bench_compare: WARNING: --zero-alloc {prefix} matched no "
                  "fresh benchmark", file=sys.stderr)

    if failures:
        print("\nREGRESSIONS:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print(f"\nOK: headline benchmarks within {args.threshold:.0%} {unit}, "
          "no allocs/op growth")


if __name__ == "__main__":
    main()
