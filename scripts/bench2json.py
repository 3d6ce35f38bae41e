#!/usr/bin/env python3
"""Convert `go test -bench` output on stdin to a JSON benchmark record.

Each Benchmark line has the shape

    BenchmarkName-8   12345   123.4 ns/op   0 B/op   0 allocs/op   1.2 extra-unit

i.e. a name, an iteration count, then (value, unit) pairs — including any
custom b.ReportMetric units. The output is what scripts/bench.sh writes to
BENCH_<n>.json, the perf trajectory across PRs.
"""
import json
import os
import subprocess
import sys


def parse(stream):
    """Returns the benchmark rows, the `cpu:` line go test prints and the
    GOMAXPROCS the rows ran at (their names' -N suffix)."""
    benches, cpu, procs = [], None, None
    for line in stream:
        line = line.strip()
        if line.startswith("cpu:") and cpu is None:
            cpu = line[len("cpu:"):].strip()
        if not line.startswith("Benchmark"):
            continue
        fields = line.split()
        if len(fields) < 4 or not fields[1].isdigit():
            continue
        name, _, suffix = fields[0].rpartition("-")
        if name and suffix.isdigit():
            procs = procs or int(suffix)
        else:
            name = fields[0]
        entry = {"name": name, "iterations": int(fields[1]), "metrics": {}}
        pairs = fields[2:]
        for value, unit in zip(pairs[0::2], pairs[1::2]):
            try:
                entry["metrics"][unit] = float(value)
            except ValueError:
                pass
        benches.append(entry)
    return benches, cpu, procs


def main():
    goversion = subprocess.run(
        ["go", "version"], capture_output=True, text=True
    ).stdout.strip()
    benches, cpu, procs = parse(sys.stdin)
    # The box travels with the numbers: the parallel benchmarks mean nothing
    # without the core count they ran on, and no row compares across boxes
    # without the CPU it ran on (the root package's BenchmarkRef* rows are
    # the same run's yardstick).
    out = {
        "go": goversion,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "gomaxprocs": procs or int(os.environ.get("GOMAXPROCS") or os.cpu_count()),
        "benchmarks": benches,
    }
    json.dump(out, sys.stdout, indent=2, sort_keys=False)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
