#!/usr/bin/env python3
"""Tests of scripts/bench_compare.py on synthetic pair files.

    python3 scripts/bench_compare_test.py
"""
import os
import random
import subprocess
import sys
import tempfile
import unittest

COMPARE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_compare.py")

# name -> (ns/op, allocs/op, extra units)
ROWS = {
    "BenchmarkMemoryGetHit": (40.0, 0, {}),
    "BenchmarkScanLoopbackTCP": (3600.0, 0, {"frames/write": 2.95}),
    "BenchmarkTCPCall": (15000.0, 3, {}),
}


def line(name, ns, allocs, extra):
    units = "".join(f"\t{v:g} {u}" for u, v in extra.items())
    return f"{name}-2\t1000\t{ns:.2f} ns/op{units}\t0 B/op\t{allocs} allocs/op\n"


class CompareTest(unittest.TestCase):
    def run_pairs(self, pairs=12, slow=None, alloc=None, outlier=None, work=None):
        """Writes pairs of runs of ROWS with ±3% seeded noise, then runs the
        comparator on them. slow = (row, factor) on every head run; alloc =
        a row whose head runs allocate once more; outlier = (pair, factor)
        on every row of that pair's head run; work = (row, unit, factor) on
        every head run."""
        rng = random.Random(1)
        with tempfile.TemporaryDirectory() as d:
            for n in range(1, pairs + 1):
                for side in ("base", "head"):
                    with open(os.path.join(d, f"{n}.{side}"), "w") as f:
                        for name, (ns, allocs, extra) in ROWS.items():
                            ns *= rng.uniform(0.97, 1.03)
                            if side == "head":
                                if slow and slow[0] == name:
                                    ns *= slow[1]
                                if alloc == name:
                                    allocs += 1
                                if outlier and outlier[0] == n:
                                    ns *= outlier[1]
                                if work and work[0] == name:
                                    extra = {u: v * work[2] if u == work[1] else v
                                             for u, v in extra.items()}
                            f.write(line(name, ns, allocs, extra))
            return subprocess.run([sys.executable, COMPARE, d],
                                  capture_output=True, text=True)

    def regressions(self, out):
        return [l.strip() for l in out.stderr.splitlines() if l.startswith("  ")]

    def test_identical_sides_pass(self):
        out = self.run_pairs()
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)
        self.assertIn("OK", out.stdout)

    def test_slow_row_fails_alone(self):
        out = self.run_pairs(slow=("BenchmarkMemoryGetHit", 1.2))
        self.assertEqual(out.returncode, 1, out.stdout + out.stderr)
        fails = self.regressions(out)
        self.assertEqual(len(fails), 1, fails)
        self.assertTrue(fails[0].startswith("BenchmarkMemoryGetHit: time:"), fails)
        self.assertIn("slower in 12/12 pairs", fails[0])

    def test_extra_alloc_fails_on_allocs(self):
        out = self.run_pairs(alloc="BenchmarkTCPCall")
        self.assertEqual(out.returncode, 1, out.stdout + out.stderr)
        fails = self.regressions(out)
        self.assertEqual(fails, ["BenchmarkTCPCall: allocs/op: 3 -> 4 (tolerance 0%)"])

    def test_fewer_frames_a_write_fails_on_the_count(self):
        out = self.run_pairs(work=("BenchmarkScanLoopbackTCP", "frames/write", 0.9))
        self.assertEqual(out.returncode, 1, out.stdout + out.stderr)
        fails = self.regressions(out)
        self.assertEqual(len(fails), 1, fails)
        self.assertTrue(fails[0].startswith("BenchmarkScanLoopbackTCP: frames/write:"), fails)

    def test_one_outlier_pair_passes(self):
        out = self.run_pairs(outlier=(5, 3.0))
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)


if __name__ == "__main__":
    unittest.main()
