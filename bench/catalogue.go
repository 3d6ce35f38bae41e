package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef is one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may get worse.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// catalogue is the part of BENCHMARK.json the program reads. The file at
// the repository root is the one place where workload names, metric names,
// units, directions and bounds are written down: -compare takes its bounds
// from it and the smoke test holds every run's output against it.
type catalogue struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadCatalogue reads the BENCHMARK.json of the repository the working
// directory is in (the root for bench/run.sh, bench/ for go run -C bench).
func loadCatalogue() (*catalogue, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var c catalogue
			if err := json.Unmarshal(b, &c); err != nil {
				return nil, fmt.Errorf("%s: %w", filepath.Join(dir, "BENCHMARK.json"), err)
			}
			return &c, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}
