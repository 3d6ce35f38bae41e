// Command bench is the repository's wall-clock end-to-end benchmark: it
// drives leap.Memory in real time against RemoteAgent.Serve listeners on
// loopback TCP, checks every byte it reads, and reports the end-to-end
// metrics of an untraced run and the per-layer breakdown of a traced one.
// See README.md in this directory for the workload and metric catalogue.
//
//	go run .                          all workloads, untraced then traced, then the probes
//	go run . -workload seq_read       one workload, untraced
//	go run . -workload seq_read -trace 1
//	go run . -probes                  the stand-alone layer probes only
//	go run . -compare a.jsonl b.jsonl two -out files against the bounds
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"leap/bench/layers"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run this one workload in this process (default: all, one process each)")
		seed     = fs.Uint64("seed", 1, "workload seed: equal seeds give equal access streams")
		seconds  = fs.Float64("seconds", runSeconds, "run length the op counts are sized for on the reference box")
		trace    = fs.Int("trace", 0, "0: untraced, end-to-end metrics; 1: traced, per-layer metrics")
		probeMS  = fs.Int("probe-ms", 300, "length of each stand-alone probe; negative skips them in a traced run")
		probes   = fs.Bool("probes", false, "run only the stand-alone layer probes")
		runs     = fs.Int("runs", 1, "with no -workload: untraced runs per workload, seeds counting up from -seed")
		out      = fs.String("out", "", "append one JSON line per run to this file (input of -compare)")
		compare  = fs.Bool("compare", false, "compare two -out files: per workload and end-to-end metric, medians, delta and bound")
		skew     = fs.Int64("skew-page", -1, "self-test: expect a wrong image for this page; the run must report failed operations")
	)
	if err := fs.Parse(args); err != nil {
		return 2 // Parse has printed the error and the usage
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(errors.New("-compare takes two files"))
		}
		return compareFiles(fs.Arg(0), fs.Arg(1))
	case *probes:
		ms, err := layers.RunProbes(time.Duration(*probeMS) * time.Millisecond)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("# probes  %s\n", readEnv())
		for _, m := range ms {
			printMetric("probe", metric{m.Name, m.Unit, m.Value})
		}
		return 0
	case *workload == "":
		return runAll(*seed, *seconds, *runs, *probeMS, *out, *skew)
	}

	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *trace != 0,
		setups:   untracedSetUps,
		probeDur: time.Duration(*probeMS) * time.Millisecond,
		skewPage: *skew,
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return fail(err)
	}
	sp, _ := specByName(cfg.workload)
	fmt.Printf("# %s  seed=%d seconds=%g trace=%d goroutines=%d\n", res.Workload, res.Seed, cfg.seconds, *trace, sp.goroutines)
	fmt.Printf("# env: %s\n", res.Env)
	for _, m := range res.Metrics {
		printMetric(res.Workload, m)
	}
	fmt.Printf("# %s  attempted=%d failed=%d latency_samples=%d\n", res.Workload, res.Attempted, res.Failed, res.Samples)
	if res.FirstError != "" {
		fmt.Printf("# first error: %s\n", res.FirstError)
	}
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			return fail(err)
		}
	}
	if err := printContractLine(res); err != nil {
		return fail(err)
	}
	if res.Failed > 0 {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func printMetric(scope string, m metric) {
	fmt.Printf("%-14s %-48s %16.4f %s\n", scope, m.Name, m.Value, m.Unit)
}

// printContractLine prints the one JSON object the benchmark driver reads
// from the last line of standard output.
func printContractLine(res *result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   res.Failed == 0,
		Attempted: res.Attempted,
		Failed:    res.Failed,
		Metrics:   make(map[string]value, len(res.Metrics)),
	}
	for _, m := range res.Metrics {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	fmt.Printf("%s\n", b)
	return nil
}

func appendResult(path string, res *result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("-out: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("-out: %w", err)
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("-out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("-out: %w", err)
	}
	return nil
}

// runAll runs every workload in a fresh process each — so that resident_mb
// and setup_s are per workload — untraced then traced, and the probes once
// at the end.
func runAll(seed uint64, seconds float64, runs, probeMS int, out string, skew int64) int {
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	child := func(args ...string) error {
		args = append(args,
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"-skew-page", strconv.FormatInt(skew, 10))
		if out != "" {
			args = append(args, "-out", out)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		return cmd.Run()
	}
	status := 0
	for _, sp := range specs {
		for i := 0; i < runs; i++ {
			s := strconv.FormatUint(seed+uint64(i), 10)
			if err := child("-workload", sp.name, "-seed", s, "-trace", "0"); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s untraced: %v\n", sp.name, err)
				status = 1
			}
		}
		s := strconv.FormatUint(seed, 10)
		if err := child("-workload", sp.name, "-seed", s, "-trace", "1", "-probe-ms", "-1"); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s traced: %v\n", sp.name, err)
			status = 1
		}
	}
	if err := child("-probes", "-probe-ms", strconv.Itoa(probeMS)); err != nil {
		fmt.Fprintf(os.Stderr, "bench: probes: %v\n", err)
		status = 1
	}
	return status
}
