package chaos

import (
	"os"
	"reflect"
	"strconv"
	"testing"

	"leap/internal/sim"
)

// The property suites run randomized schedules of one generator
// configuration, each case against a fresh cluster. A case is a pure
// function of its seed and the generator configuration, so a failure
// reproduces from the seed alone.
var (
	randomGen  = GenConfig{MaxWindows: 4}
	elasticGen = GenConfig{MaxWindows: 5, Elastic: true}
)

// propertyOps is the workload length of a property case.
const propertyOps = 120

// propertyCase runs the schedule g draws from caseSeed, over ops operations,
// on 3–5 agents — 4–6 for an elastic schedule, room for drains.
func propertyCase(caseSeed uint64, g GenConfig, ops int) (*Report, Schedule, *Cluster, error) {
	cfg := Config{Agents: 3 + int(caseSeed%3), SlabPages: 4, Pages: 48, Ops: ops, WriteFrac: 0.45, Seed: caseSeed}
	mix := uint64(0x5eedfa17)
	if g.Elastic {
		cfg.Agents++
		mix = 0xe1a57ec5
	}
	g.Agents, g.Horizon = cfg.Agents, cfg.Horizon()
	sched := RandomSchedule(caseSeed^mix, g)
	c, err := New(cfg)
	if err != nil {
		return nil, sched, nil, err
	}
	rep, err := c.Run(sched)
	return rep, sched, c, err
}

// shrink reduces a failing case by halving the op count and trimming fault
// windows while the failure persists, and reports the smallest
// reproduction found.
func shrink(caseSeed uint64, g GenConfig, ops int) (GenConfig, int) {
	fails := func(g GenConfig, ops int) bool {
		rep, _, _, err := propertyCase(caseSeed, g, ops)
		return err != nil || rep.Violations() != 0
	}
	for ops > 25 && fails(g, ops/2) {
		ops /= 2
	}
	for g.MaxWindows > 1 && fails(GenConfig{MaxWindows: g.MaxWindows - 1, Elastic: g.Elastic}, ops) {
		g.MaxWindows--
	}
	return g, ops
}

// propertySuite runs cases seeds from base on (short under -short);
// LEAP_SEED=<seed> runs that case alone. A failure prints the case seed and
// the shrinker's smallest (ops, windows) reproduction for it.
func propertySuite(t *testing.T, g GenConfig, base uint64, cases, short int) {
	if env := os.Getenv("LEAP_SEED"); env != "" {
		seed, err := strconv.ParseUint(env, 0, 64)
		if err != nil {
			t.Fatalf("bad LEAP_SEED: %v", err)
		}
		runPropertyCase(t, seed, g)
		return
	}
	if testing.Short() {
		cases = short
	}
	for i := range cases {
		runPropertyCase(t, base|uint64(i), g)
	}
}

func runPropertyCase(t *testing.T, seed uint64, g GenConfig) {
	t.Helper()
	rep, sched, _, err := propertyCase(seed, g, propertyOps)
	if err != nil {
		t.Fatalf("case seed=%#x: run error: %v\nschedule:\n%s", seed, err, sched)
	}
	if rep.Violations() == 0 {
		return
	}
	sg, sOps := shrink(seed, g, propertyOps)
	srep, ssched, _, _ := propertyCase(seed, sg, sOps)
	t.Fatalf("case seed=%#x violated invariants (replay: LEAP_SEED=%#x go test -run '^%s$' ./internal/chaos)\n"+
		"full case:\n%s\nshrunk to ops=%d windows=%d:\n%s\nshrunk schedule:\n%s",
		seed, seed, t.Name(), rep, sOps, sg.MaxWindows, srep, ssched)
}

// TestHostPropertyRandomSchedules is the randomized-schedule property suite
// for remote.Host: after ANY generated interleaving of writes, reads,
// crash/restart cycles, partitions, flaky-write windows, slow agents and
// RepairSlabs calls, (a) every read observes the freshest acked value
// whenever any acknowledged holder is reachable, (b) every repair barrier
// restores the replication factor and clears degraded pages, and (c) after
// the final repair every acked page reads back its last written value.
// ≥1000 cases run even under -short.
func TestHostPropertyRandomSchedules(t *testing.T) {
	propertySuite(t, randomGen, 0xC4A05<<16, 2500, 1000)
}

// TestHostPropertyElasticSchedules extends the suite to elastic clusters:
// the same invariants under agent provisioning (scale-up + rebalance),
// graceful drains (retire → rebalance → purge) and gradual slow-ramps.
func TestHostPropertyElasticSchedules(t *testing.T) {
	propertySuite(t, elasticGen, 0xE1A5<<20, 2000, 1000)
}

// TestPropertyCasesAreNotVacuous samples each suite's first seeds: the
// random suite must inject faults, fail reads over and repair slabs, and
// the elastic one must scale up, drain and ramp — a suite that never does
// proves nothing about it.
func TestPropertyCasesAreNotVacuous(t *testing.T) {
	for _, s := range []struct {
		name    string
		g       GenConfig
		base    uint64
		samples int
	}{{"random", randomGen, 0xC4A05 << 16, 40}, {"elastic", elasticGen, 0xE1A5 << 20, 60}} {
		t.Run(s.name, func(t *testing.T) {
			var injected, failovers, repairs, ups, downs, ramps int64
			for i := range s.samples {
				seed := s.base | uint64(i)
				rep, sched, c, err := propertyCase(seed, s.g, propertyOps)
				if err != nil {
					t.Fatalf("seed=%#x: %v", seed, err)
				}
				failovers += rep.FailoverReads
				repairs += rep.RepairedSlabs
				ups += rep.ScaleUps
				downs += rep.ScaleDowns
				for _, ft := range c.Faults() {
					_, inj := ft.Stats()
					injected += inj
				}
				for _, e := range sched.Events {
					if e.Kind == SlowRamp {
						ramps++
					}
				}
			}
			if !s.g.Elastic && (injected == 0 || failovers == 0 || repairs == 0) {
				t.Fatalf("sample never exercised faults: injected=%d failovers=%d repairs=%d", injected, failovers, repairs)
			}
			if s.g.Elastic && (ups == 0 || downs == 0 || ramps == 0) {
				t.Fatalf("sample never exercised transitions: ups=%d downs=%d ramps=%d", ups, downs, ramps)
			}
		})
	}
}

// TestRandomScheduleRoundTrips checks that generated schedules — whose
// event times have nanosecond precision — survive String→Parse exactly, so a
// printed failing schedule is a faithful reproduction.
func TestRandomScheduleRoundTrips(t *testing.T) {
	roundTrips(t, GenConfig{Agents: 4, Horizon: 10 * sim.Millisecond, MaxWindows: 4})
}

// TestElasticScheduleRoundTrips extends the round trip to elastic schedules,
// whose grammar adds the agentless scaleup verb and the slowramp latency
// parameter, and to the shipped elastic library.
func TestElasticScheduleRoundTrips(t *testing.T) {
	roundTrips(t, GenConfig{Agents: 5, Horizon: 10 * sim.Millisecond, MaxWindows: 5, Elastic: true},
		ElasticLibrary(10*sim.Millisecond)...)
}

// roundTrips re-parses the printed form of g's schedules for seeds 0–49 and
// of extra, and fails on the first that does not come back event for event.
func roundTrips(t *testing.T, g GenConfig, extra ...Schedule) {
	t.Helper()
	var scheds []Schedule
	for seed := uint64(0); seed < 50; seed++ {
		scheds = append(scheds, RandomSchedule(seed, g))
	}
	for _, s := range append(scheds, extra...) {
		again, err := Parse(s.Name, s.String())
		if err != nil {
			t.Fatalf("%s: re-parse: %v\n%s", s.Name, err, s)
		}
		if !reflect.DeepEqual(s.Events, again.Events) {
			t.Fatalf("%s: round trip diverged:\n%v\n%v", s.Name, s.Events, again.Events)
		}
	}
}

// TestRandomScheduleDeterministic pins the generator itself: same seed,
// same schedule.
func TestRandomScheduleDeterministic(t *testing.T) {
	g := GenConfig{Agents: 4, Horizon: 10 * sim.Millisecond, MaxWindows: 4}
	a := RandomSchedule(99, g)
	b := RandomSchedule(99, g)
	if a.String() != b.String() {
		t.Fatalf("generator nondeterministic:\n%s\n%s", a, b)
	}
	if c := RandomSchedule(100, g); c.String() == a.String() {
		t.Fatal("different seeds generated identical schedules")
	}
	if len(a.Events) == 0 {
		t.Fatal("empty schedule generated")
	}
}
