package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// readRuns loads the untraced results of an -out file: workload → metric →
// one value per run.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var res result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if res.Traced {
			continue
		}
		if res.Failed > 0 {
			return nil, fmt.Errorf("%s:%d: %s had %d failed operations; its numbers do not count", path, line, res.Workload, res.Failed)
		}
		if runs[res.Workload] == nil {
			runs[res.Workload] = map[string][]float64{}
		}
		for _, m := range res.Metrics {
			runs[res.Workload][m.Name] = append(runs[res.Workload][m.Name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}

// compareFiles prints, per workload and end-to-end metric, the median of
// each file's runs, how much worse b is than a as a share of a, and the
// bound BENCHMARK.json gives it; it returns 1 when any metric is worse by
// more than its bound.
func compareFiles(a, b string) int {
	ra, err := readRuns(a)
	if err != nil {
		return fail(err)
	}
	rb, err := readRuns(b)
	if err != nil {
		return fail(err)
	}
	cat, err := loadCatalogue()
	if err != nil {
		return fail(err)
	}
	fmt.Printf("%-14s %-22s %14s %14s %9s %7s\n", "workload", "metric", "a (median)", "b (median)", "worse by", "bound")
	status := 0
	for _, sp := range specs {
		if ra[sp.name] == nil && rb[sp.name] == nil {
			continue // a workload neither file ran
		}
		for _, def := range cat.EndToEnd {
			va, vb := ra[sp.name][def.Name], rb[sp.name][def.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-14s %-22s missing from one file\n", sp.name, def.Name)
				status = 1
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if def.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > def.Bound {
				verdict = "  BEYOND BOUND"
				status = 1
			}
			fmt.Printf("%-14s %-22s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n",
				sp.name, def.Name, ma, mb, worse*100, def.Bound*100, verdict)
		}
	}
	return status
}
