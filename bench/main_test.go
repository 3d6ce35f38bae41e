package main

import (
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"leap/bench/layers"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkMetrics asserts that res carries every metric of defs exactly once,
// with the catalogue's unit, and nothing else.
func checkMetrics(t *testing.T, res *result, defs []metricDef) map[string]float64 {
	t.Helper()
	got := map[string]float64{}
	units := map[string]string{}
	for _, m := range res.Metrics {
		if _, dup := got[m.Name]; dup {
			t.Errorf("%s: metric %s emitted twice", res.Workload, m.Name)
		}
		if !nameRE.MatchString(m.Name) {
			t.Errorf("%s: metric name %q", res.Workload, m.Name)
		}
		got[m.Name] = m.Value
		units[m.Name] = m.Unit
	}
	for _, d := range defs {
		if _, ok := got[d.Name]; !ok {
			t.Errorf("%s: metric %s missing", res.Workload, d.Name)
		} else if units[d.Name] != d.Unit {
			t.Errorf("%s: metric %s has unit %q, catalogue says %q", res.Workload, d.Name, units[d.Name], d.Unit)
		}
	}
	if len(got) != len(defs) {
		t.Errorf("%s: %d metrics emitted, catalogue has %d", res.Workload, len(got), len(defs))
	}
	return got
}

// smokeSeconds sizes every workload at 1/1000 of the op count of an 8 s run.
const smokeSeconds = 0.008

// TestSmoke runs every workload at 1/1000 scale, untraced and traced, and
// every probe for one pass, and checks the output against BENCHMARK.json and
// that each workload exercises what it claims to. The probes do not depend
// on the workload, so they run once and every traced run is checked against
// the rest of the per-layer metrics.
func TestSmoke(t *testing.T) {
	cat, err := loadCatalogue()
	if err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json names the workloads the driver runs, which are not all
	// the program has: README.md says which run by hand only, and why.
	for _, w := range cat.Workloads {
		if _, ok := specByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json names workload %s, the program has none", w.Name)
		}
	}
	probes, err := layers.RunProbes(0)
	if err != nil {
		t.Fatal(err)
	}
	probed := &result{Workload: "probes"}
	for _, m := range probes {
		probed.add(m.Name, m.Unit, m.Value)
	}
	var probeDefs, tracedDefs []metricDef
	for _, d := range cat.PerLayer {
		if slices.ContainsFunc(probes, func(m layers.Metric) bool { return m.Name == d.Name }) {
			probeDefs = append(probeDefs, d)
		} else {
			tracedDefs = append(tracedDefs, d)
		}
	}
	checkMetrics(t, probed, probeDefs)

	for _, sp := range specs {
		cfg := config{workload: sp.name, seed: 1, seconds: smokeSeconds, setups: 1, probeDur: -1, skewPage: -1}
		res, err := runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s untraced: %v", sp.name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s untraced: attempted=%d failed=%d (%s)", sp.name, res.Attempted, res.Failed, res.FirstError)
		}
		for name, v := range checkMetrics(t, res, cat.EndToEnd) {
			if v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", sp.name, name, v)
			}
		}

		cfg.traced = true
		res, err = runWorkload(cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", sp.name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s traced: attempted=%d failed=%d (%s)", sp.name, res.Attempted, res.Failed, res.FirstError)
		}
		m := checkMetrics(t, res, tracedDefs)
		if v := m["trace.sum_error_pct"]; v > 2 {
			t.Errorf("%s: traced breakdown is %.2f%% off the op time, want <= 2%%", sp.name, v)
		}
		switch sp.name {
		case "hot_mixed_2g", "ztier_cycle":
			if v := m["remote.transport.calls_per_page"]; v != 0 {
				t.Errorf("%s: %v transport calls per page in the measured phase, want 0", sp.name, v)
			}
		case "rand_read":
			if v := m["prefetch.issued_per_fault"]; v >= 0.01 {
				t.Errorf("rand_read: %v prefetches issued per fault, want < 0.01", v)
			}
		case "seq_read_far":
			if v := m["remote.transport.wait_share"]; v <= 0.9 {
				t.Errorf("seq_read_far: wire wait is %v of op time, want > 0.9", v)
			}
		}
		if sp.name == "ztier_cycle" {
			// Every access is timed here, so Samples is the access count.
			if v := m["ztier.hits"] / float64(res.Samples); v <= 0.95 {
				t.Errorf("ztier_cycle: %v tier hits per access, want > 0.95", v)
			}
		}
	}
}

// TestSkewedImageFails is the verification self-test: with the expected
// image of one page deliberately wrong, the run must count failed
// operations and exit non-zero.
func TestSkewedImageFails(t *testing.T) {
	out := filepath.Join(t.TempDir(), "skewed.jsonl")
	code := realMain([]string{"-workload", "hot_mixed_2g", "-seconds", "0.008", "-skew-page", "7", "-out", out})
	if code != 1 {
		t.Errorf("exit code %d with a skewed page image, want 1", code)
	}
	// -compare refuses the file because its one run has failed operations.
	if _, err := readRuns(out); err == nil || !strings.Contains(err.Error(), "failed operations") {
		t.Errorf("reading the record of a run with a skewed page image: %v, want a refusal for failed operations", err)
	}
}

func TestCompare(t *testing.T) {
	cat, err := loadCatalogue()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, scale float64) string {
		path := filepath.Join(dir, name)
		for _, sp := range specs {
			for run := 0; run < 3; run++ {
				res := &result{Workload: sp.name, Attempted: 1}
				for _, d := range cat.EndToEnd {
					v := 100 + float64(run)
					if d.Name == "pages_per_s" {
						v /= scale // higher is better: a slower b has a lower rate
					} else {
						v *= scale
					}
					res.add(d.Name, d.Unit, v)
				}
				if err := appendResult(path, res); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	a := write("a.jsonl", 1)
	same := write("same.jsonl", 1.01)
	slow := write("slow.jsonl", 1.5)
	if code := compareFiles(a, same); code != 0 {
		t.Errorf("compare of runs 1%% apart exits %d, want 0", code)
	}
	if code := compareFiles(a, slow); code != 1 {
		t.Errorf("compare against runs 50%% worse exits %d, want 1", code)
	}
	if code := compareFiles(slow, a); code != 0 {
		t.Errorf("compare against better runs exits %d, want 0", code)
	}
}
