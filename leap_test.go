package leap

import (
	"strings"
	"testing"

	"leap/internal/prefetch"
)

func TestPredictorFacade(t *testing.T) {
	p := NewPredictor(PredictorConfig{})
	for i := 0; i < 40; i++ {
		p.Record(PageID(i * 10))
	}
	cands := p.Predict(PageID(400))
	if len(cands) == 0 || cands[0] != 410 {
		t.Fatalf("facade predictor candidates = %v", cands)
	}
}

func TestPrefetcherFacade(t *testing.T) {
	names := prefetch.Names()
	if len(names) != 7 {
		t.Fatalf("prefetch.Names = %v", names)
	}
	for _, n := range names {
		p, err := NewPrefetcher(n)
		if err != nil || p.Name() != n {
			t.Fatalf("NewPrefetcher(%q): %v", n, err)
		}
	}
	if _, err := NewPrefetcher("bogus"); err == nil {
		t.Fatal("bogus prefetcher accepted")
	}
}

func TestSimulateStrideComparison(t *testing.T) {
	run := func(sys System) SimResult {
		res, err := Simulate(SimConfig{
			System:           sys,
			WarmupAccesses:   2000,
			MeasuredAccesses: 10000,
			Seed:             7,
		}, []Workload{{
			PID:              1,
			Generator:        NewStrideWorkload(1<<20, 10, 7),
			MemoryLimitPages: 4096,
		}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dvmm := run(SystemDVMM)
	leap := run(SystemDVMMLeap)
	if leap.Latency.P50 >= dvmm.Latency.P50 {
		t.Fatalf("leap p50 %v not below d-vmm %v", leap.Latency.P50, dvmm.Latency.P50)
	}
	if ratio := float64(dvmm.Latency.P50) / float64(leap.Latency.P50); ratio < 20 {
		t.Fatalf("stride median gain %.1f×, want >= 20×", ratio)
	}
}

func TestSimulateAppWorkload(t *testing.T) {
	gen, err := NewAppWorkload("voltdb", 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(SimConfig{
		System:           SystemDVMMLeap,
		WarmupAccesses:   1000,
		MeasuredAccesses: 6000,
		Seed:             3,
	}, []Workload{{
		PID:              1,
		Generator:        gen,
		MemoryLimitPages: gen.Pages() / 2,
		PreloadPages:     -1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerProc[0].OpsPerSec <= 0 {
		t.Fatal("no throughput computed")
	}
	if _, err := NewAppWorkload("nosuch", 1); err == nil {
		t.Fatal("bogus app accepted")
	} else if !strings.Contains(err.Error(), "powergraph") {
		t.Fatalf("error %v does not list the valid names", err)
	}
}

func TestSimulateCustomPrefetcher(t *testing.T) {
	pf, _ := NewPrefetcher("nextnline")
	res, err := Simulate(SimConfig{
		System:           SystemDVMM,
		Prefetcher:       pf,
		WarmupAccesses:   500,
		MeasuredAccesses: 3000,
		Seed:             5,
	}, []Workload{{
		PID:              1,
		Generator:        NewSequentialWorkload(1<<20, 5),
		MemoryLimitPages: 4096,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.PrefetchIssued == 0 {
		t.Fatal("custom prefetcher not used")
	}
}

func TestSimulateRejectsUnknownSystem(t *testing.T) {
	if _, err := Simulate(SimConfig{System: System(9)}, []Workload{{
		PID: 1, Generator: NewSequentialWorkload(64, 1), MemoryLimitPages: 16,
	}}); err == nil {
		t.Fatal("Simulate ran System(9)")
	}
}

func TestRemoteMemoryFacade(t *testing.T) {
	agents := []*RemoteAgent{NewRemoteAgent(16, 0), NewRemoteAgent(16, 0)}
	trs := []RemoteTransport{NewInProcTransport(agents[0]), NewInProcTransport(agents[1])}
	host, err := NewRemoteHost(RemoteHostConfig{SlabPages: 16, Replicas: 2, Seed: 1}, trs)
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	page := make([]byte, RemotePageSize)
	page[0] = 0xEE
	if err := host.WritePage(5, page); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, RemotePageSize)
	if err := host.ReadPage(5, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xEE {
		t.Fatal("remote round trip corrupted data")
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(SimConfig{}, nil); err == nil {
		t.Fatal("empty workload list accepted")
	}
	w := []Workload{{PID: 1, Generator: NewSequentialWorkload(64, 1), MemoryLimitPages: 16}}
	for _, cfg := range []SimConfig{
		{System: SystemDVMMLeap, WarmupAccesses: -5},
		{System: SystemDVMMLeap, MeasuredAccesses: -5},
	} {
		if _, err := Simulate(cfg, w); err == nil {
			t.Errorf("negative run length accepted: %+v", cfg)
		}
	}
}
