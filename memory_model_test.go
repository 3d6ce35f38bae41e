package leap

import (
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	goruntime "runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leap/internal/core"
	"leap/internal/load"
	"leap/internal/remote"
	"leap/internal/sim"
)

// A case's driver: load's seeded interleave on the test goroutine, unrolled
// so the shard invariants are checked mid-run; load.Drive's goroutines; or a
// goroutine a client over four agents behind fault transports while one
// crashes, is repaired around, restarts empty and is repaired onto again.
const (
	oneGoroutine = iota
	goroutines
	crashRepair
)

var (
	modelShards  = []int{1, 2, 4, 8}
	modelDepths  = []int{1, 2, 8}
	modelDrivers = []string{"one-goroutine", "goroutines", "crash-repair"}
)

// modelCase is one point of the option cross-product and the load driving
// it. The capacity is always under the span, so every case evicts.
type modelCase struct {
	shards, depth, capacity int
	tierPages               int // 0: no compressed tier
	wire, ensemble, advise  bool
	driver                  int
	cfg                     load.Config
}

// drawCase draws a case from seed: the driver and the stripe count from its
// low digits, so consecutive seeds cross them, and every other axis from an
// RNG it seeds. pins then fix the axes a slice of the model is about; the
// load defaults to its driver's shape and the capacity is drawn under the
// span unless a pin set them.
func drawCase(seed uint64, pins ...func(*modelCase)) modelCase {
	rng := sim.NewRNG(seed)
	c := modelCase{
		driver:   int(seed % uint64(len(modelDrivers))),
		shards:   modelShards[seed/uint64(len(modelDrivers))%uint64(len(modelShards))],
		depth:    modelDepths[rng.Intn(len(modelDepths))],
		wire:     rng.Intn(2) == 1,
		ensemble: rng.Intn(2) == 1,
		advise:   rng.Intn(2) == 1,
	}
	if rng.Intn(2) == 1 {
		c.tierPages = 16 + rng.Intn(48)
	}
	for _, pin := range pins {
		pin(&c)
	}
	if c.cfg.Clients == 0 {
		c.cfg = load.Config{Clients: 3, OpsPerClient: 250, PagesPerClient: 48}
		if c.driver != oneGoroutine {
			c.cfg = load.Config{Clients: 4, Goroutines: 4, OpsPerClient: 300, PagesPerClient: 64}
		}
	}
	c.cfg.Seed = seed
	if c.capacity == 0 {
		c.capacity = 32 + rng.Intn(int(c.cfg.Span())/2)
	}
	return c
}

// axes names the value the case takes on each option axis; the corpus must
// take every value of every axis under every driver.
func (c modelCase) axes() []string {
	onOff := func(b bool) string { return map[bool]string{false: "off", true: "on"}[b] }
	return []string{
		fmt.Sprint("shards=", c.shards), fmt.Sprint("depth=", c.depth),
		"tier=" + onOff(c.tierPages > 0), "wire=" + onOff(c.wire),
		"ensemble=" + onOff(c.ensemble), "advise=" + onOff(c.advise),
	}
}

// modelCorpus is TestMemoryModel's fixed set of case seeds.
func modelCorpus() []uint64 {
	seeds := make([]uint64, 36)
	for i := range seeds {
		seeds[i] = 0x30DE1<<16 | uint64(i)
	}
	return seeds
}

// TestMemoryModel is the Memory's executable specification: one seeded
// runner over the cross-product of the options that shape the fault path,
// each case checked against load's per-client page oracles and the
// runtime's own invariants. It runs the corpus, after checking that it
// takes every value of every axis under every driver; LEAP_SEED=<seed> go
// test -run 'TestMemoryModel$' . replays the one case a failure names.
func TestMemoryModel(t *testing.T) {
	if seed, ok := replaySeed(t); ok {
		runModelCase(t, seed)
		return
	}
	seen := map[string]bool{}
	for _, seed := range modelCorpus() {
		c := drawCase(seed)
		for _, v := range c.axes() {
			seen[modelDrivers[c.driver]+" "+v] = true
		}
	}
	// Four on/off axes and the two lists, under each driver.
	if want := len(modelDrivers) * (4*2 + len(modelShards) + len(modelDepths)); len(seen) != want {
		t.Errorf("the corpus draws %d of the %d driver × axis values: %v", len(seen), want, seen)
	}
	for _, seed := range modelCorpus() {
		t.Run(fmt.Sprintf("%#x", seed), func(t *testing.T) { runModelCase(t, seed) })
	}
}

// FuzzMemoryModel searches case seeds beyond the corpus (go test -fuzz
// FuzzMemoryModel). Outside fuzzing the corpus is TestMemoryModel's to run.
func FuzzMemoryModel(f *testing.F) {
	if flag.Lookup("test.fuzz").Value.String() != "" {
		for _, seed := range modelCorpus() {
			f.Add(seed)
		}
	}
	f.Fuzz(runModelCase)
}

// replaySeed is the case seed LEAP_SEED names, if it is set.
func replaySeed(t *testing.T) (uint64, bool) {
	env := os.Getenv("LEAP_SEED")
	if env == "" {
		return 0, false
	}
	seed, err := strconv.ParseUint(env, 0, 64)
	if err != nil {
		t.Fatalf("bad LEAP_SEED: %v", err)
	}
	return seed, true
}

// modelSlice runs n cases of the model with pins applied, from seeds of
// the test's own; LEAP_SEED=<seed> go test -run '^<test>$' . replays one.
// The tests below are such slices, each pinned to the feature it names.
func modelSlice(t *testing.T, n int, pins ...func(*modelCase)) {
	replay := "^" + t.Name() + "$"
	if seed, ok := replaySeed(t); ok {
		runModel(t, replay, seed, pins...)
		return
	}
	h := fnv.New64a()
	h.Write([]byte(t.Name()))
	for i := range n {
		runModel(t, replay, h.Sum64()<<8|uint64(i), pins...)
	}
}

// withTier turns the compressed tier on, at 32 pages, where the draw left
// it off.
func withTier(c *modelCase) { c.tierPages = max(c.tierPages, 32) }

// TestMemoryReadYourWritesProperty: on one goroutine and one stripe, every
// read observes its client's last write and the final image is the oracle's.
func TestMemoryReadYourWritesProperty(t *testing.T) {
	modelSlice(t, 2, func(c *modelCase) { c.driver, c.shards = oneGoroutine, 1 })
}

// TestMemoryZtierReadYourWritesProperty: read-your-writes on one goroutine
// through the compressed tier, which must seal pages.
func TestMemoryZtierReadYourWritesProperty(t *testing.T) {
	modelSlice(t, 2, func(c *modelCase) { c.driver = oneGoroutine; withTier(c) })
}

// TestMemoryAdviseReadYourWritesProperty: read-your-writes on one goroutine
// with Advise calls of all four kinds between steps and the ensemble on.
func TestMemoryAdviseReadYourWritesProperty(t *testing.T) {
	modelSlice(t, 2, func(c *modelCase) { c.driver, c.advise, c.ensemble = oneGoroutine, true, true })
}

// TestMemoryShardedInvariantsProperty: on one goroutine over several
// stripes, the shard invariants hold every 64 operations and at the end.
func TestMemoryShardedInvariantsProperty(t *testing.T) {
	modelSlice(t, 2, func(c *modelCase) { c.driver, c.shards = oneGoroutine, max(c.shards, 4) })
}

// TestMemoryConcurrentStress: goroutines through per-client handles on one
// stripe, every access counted once and the host seeing traffic.
func TestMemoryConcurrentStress(t *testing.T) {
	modelSlice(t, 1, func(c *modelCase) { c.driver, c.shards = goroutines, 1 })
}

// TestMemoryConcurrentStressSharedPages: eight goroutines over a narrow
// span and a budget of a quarter of it, so concurrent faults pile onto the
// same pages.
func TestMemoryConcurrentStressSharedPages(t *testing.T) {
	modelSlice(t, 1, func(c *modelCase) {
		c.driver, c.capacity = goroutines, 48
		c.cfg = load.Config{Clients: 8, Goroutines: 8, OpsPerClient: 300, PagesPerClient: 24}
	})
}

// TestMemoryZtierConcurrentStress: goroutines through the compressed tier.
func TestMemoryZtierConcurrentStress(t *testing.T) {
	modelSlice(t, 1, func(c *modelCase) { c.driver = goroutines; withTier(c) })
}

// TestMemoryShardedStress: goroutines across the shards × clients ×
// goroutines grid, each cell checked for exact accesses, the final image
// and the shard invariants.
func TestMemoryShardedStress(t *testing.T) {
	for _, g := range []struct{ shards, clients, goroutines int }{{2, 4, 4}, {4, 8, 8}, {8, 8, 8}} {
		t.Run(fmt.Sprintf("shards=%d_clients=%d_goroutines=%d", g.shards, g.clients, g.goroutines), func(t *testing.T) {
			modelSlice(t, 1, func(c *modelCase) {
				c.driver, c.shards, c.capacity = goroutines, g.shards, 128
				c.cfg = load.Config{Clients: g.clients, Goroutines: g.goroutines, OpsPerClient: 150, PagesPerClient: 64}
			})
		})
	}
}

// TestMemoryEnsembleStress: goroutines with the ensemble on and an Advise
// goroutine; the ensemble must close epochs.
func TestMemoryEnsembleStress(t *testing.T) {
	modelSlice(t, 1, func(c *modelCase) { c.driver, c.ensemble, c.advise = goroutines, true, true })
}

// TestMemoryConcurrentChaosCrashRepair: the crash → repair → restart →
// repair schedule under goroutines on one stripe.
func TestMemoryConcurrentChaosCrashRepair(t *testing.T) {
	modelSlice(t, 1, func(c *modelCase) { c.driver, c.shards = crashRepair, 1 })
}

// TestMemoryShardedChaosCrashRepair: the same schedule over four stripes,
// so failover and purge interleave with every stripe's lock.
func TestMemoryShardedChaosCrashRepair(t *testing.T) {
	modelSlice(t, 1, func(c *modelCase) { c.driver, c.shards = crashRepair, 4 })
}

// runModelCase runs the case the seed draws.
func runModelCase(t *testing.T, seed uint64) { runModel(t, "^TestMemoryModel$", seed) }

// runModel opens the Memory the seed's case, under pins, describes, drives
// its load and checks it. A failure names the seed and the -run pattern
// that, with LEAP_SEED, replays it.
func runModel(t *testing.T, replay string, seed uint64, pins ...func(*modelCase)) {
	c := drawCase(seed, pins...)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("case %#x (%s) %+v: %s\nreplay with LEAP_SEED=%#x go test -run '%s' .",
			seed, modelDrivers[c.driver], c, fmt.Sprintf(format, args...), seed, replay)
	}
	check := func(err error) {
		t.Helper()
		if err != nil {
			fail("%v", err)
		}
	}
	opts := []Option{WithSeed(seed*0x9E3779B97F4A7C15 + 1), WithShards(c.shards),
		WithCacheCapacity(c.capacity), WithQueueDepth(c.depth)}
	if c.tierPages > 0 {
		opts = append(opts, WithCompressedTier(int64(c.tierPages)*RemotePageSize))
	}
	if c.ensemble {
		opts = append(opts, WithEnsemble(EnsembleConfig{EpochFaults: 8, SwitchStreak: 1}))
	}
	var cl *modelCluster
	if c.driver == crashRepair {
		cl = newModelCluster(t, seed, c.depth, c.wire)
		defer cl.host.Close()
		opts = append(opts, WithRemoteHost(cl.host))
	} else {
		opts = append(opts, WithWireCompression(c.wire))
	}
	mem, err := Open(opts...)
	check(err)
	defer mem.Close()
	span := core.PageID(c.cfg.Span())

	var streams []*load.Stream
	if c.driver == oneGoroutine {
		streams = make([]*load.Stream, c.cfg.Clients)
		ios := make([]load.IO, c.cfg.Clients)
		for i := range streams {
			streams[i], ios[i] = load.NewStream(i, c.cfg), mem.Client(i)
			if i%2 == 1 {
				ios[i] = getIO{mem.Client(i)}
			}
		}
		// load.Sequential's interleave, with Advise calls drawn between steps.
		sched, hints := sim.NewRNG(c.cfg.Seed^0xC0FFEE), sim.NewRNG(seed^0xAD5E)
		for remaining, ops := c.cfg.Clients, 0; remaining > 0; {
			s := streams[sched.Intn(c.cfg.Clients)]
			if s.Done() {
				continue
			}
			if c.advise && hints.Intn(4) == 0 {
				check(adviseOnce(mem, hints, c.cfg))
			}
			check(s.Step(ios[s.Client]))
			if s.Done() {
				remaining--
			}
			if ops++; ops%64 == 0 {
				check(mem.CheckShardInvariants(span))
			}
		}
	} else {
		wd := deadlockWatchdog(120*time.Second, fmt.Sprintf("case %#x", seed))
		defer wd.Stop()
		stop := func() error { return nil }
		if c.advise {
			stop = adviseLoad(mem, seed, c.cfg)
		}
		var res load.Result
		if c.driver == goroutines {
			res, err = load.Drive(mem, c.cfg)
		} else {
			res, err = cl.drive(mem, c.cfg)
		}
		check(errors.Join(err, stop()))
		streams = res.Streams
	}

	check(mem.Flush())
	st := mem.Stats()
	if want := int64(c.cfg.Clients) * int64(c.cfg.OpsPerClient); st.Accesses != want {
		fail("%d accesses, want one per operation: %d", st.Accesses, want)
	}
	// DESIGN.md "Counters": on one goroutine nothing waits on another's
	// fault, and every access and every fault is counted once.
	if c.driver == oneGoroutine && (st.DemandWaits != 0 || st.ResidentHits+st.Faults != st.Accesses ||
		st.CacheHits+st.InflightHits+st.Ztier.Hits+st.Misses != st.Faults) {
		fail("demand waits or counters not conserved on one goroutine: %+v", st)
	}
	if c.tierPages == 0 && (st.Faults == 0 || st.Host.Reads == 0 || st.Host.Writes == 0) {
		fail("no remote traffic without a tier: %+v", st)
	}
	// Stamps are incompressible, so the stored fallback holds the ratio just
	// under 1; broken accounting would show 0.
	if c.tierPages > 0 && (!st.Ztier.Enabled || st.Ztier.Seals == 0 ||
		st.Ztier.RawBytes > 0 && (st.Ztier.Ratio <= 0.5 || st.Ztier.Ratio > 1.01)) {
		fail("the tier never sealed a page or its ratio left (0.5, 1.01]: %+v", st.Ztier)
	}
	if c.ensemble && (!st.Ensemble.Enabled || st.Ensemble.Clients == 0 ||
		c.driver != oneGoroutine && st.Ensemble.Epochs == 0) {
		fail("the ensemble never engaged: %+v", st.Ensemble)
	}
	if cl != nil {
		check(cl.settled())
	}
	check(load.VerifyFinal(mem, c.cfg, streams))
	check(mem.CheckShardInvariants(span))
}

// getIO reads a page through Client.Get, the handle's copying view.
type getIO struct{ *MemoryClient }

func (g getIO) ReadAt(p []byte, off int64) (int, error) {
	b, err := g.Get(PageID(off / RemotePageSize))
	return copy(p, b), err
}

// adviseOnce gives one advice of a random kind over a random range of the
// span, as a random client.
func adviseOnce(mem *Memory, rng *sim.RNG, cfg load.Config) error {
	a, start, n := Advice(rng.Intn(4)), PageID(rng.Int63n(cfg.Span())), 1+rng.Intn(40)
	if err := mem.Client(rng.Intn(cfg.Clients)).Advise(a, start, n); err != nil {
		return fmt.Errorf("Advise(%d, %d, %d): %w", a, start, n, err)
	}
	return nil
}

// adviseLoad gives advice from a goroutine of its own, one call for every
// four operations the load has, until the returned stop is called; stop
// reports the first error.
func adviseLoad(mem *Memory, seed uint64, cfg load.Config) (stop func() error) {
	var stopped atomic.Bool
	errc := make(chan error, 1)
	go func() {
		rng := sim.NewRNG(seed ^ 0xAD5E)
		var err error
		for i := cfg.Clients * cfg.OpsPerClient / 4; i > 0 && err == nil && !stopped.Load(); i-- {
			err = adviseOnce(mem, rng, cfg)
			goruntime.Gosched()
		}
		errc <- err
	}()
	return func() error { stopped.Store(true); return <-errc }
}

// modelCluster is the crash-repair driver's host: four agents, two
// replicas, each agent behind a fault transport.
type modelCluster struct {
	host   *RemoteHost
	agents []*remote.Agent
	faults []*remote.FaultTransport
	victim int
}

func newModelCluster(t *testing.T, seed uint64, depth int, compress bool) *modelCluster {
	cl := &modelCluster{}
	transports := make([]RemoteTransport, 4)
	for i := range transports {
		cl.agents = append(cl.agents, remote.NewAgent(64, 0))
		cl.faults = append(cl.faults, remote.NewFaultTransport(i, remote.NewInProc(cl.agents[i]), nil))
		transports[i] = cl.faults[i]
	}
	var err error
	cl.host, err = NewRemoteHost(RemoteHostConfig{
		SlabPages: 64, Replicas: 2, QueueDepth: depth, Seed: seed, Compress: compress,
	}, transports)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// drive runs cfg's streams, a goroutine a client, and holds them at each
// event's operation count until it is applied: the crash, once 15 % of the
// operations are done and a slab is mapped, of the agent holding the most
// slabs then; over the operations left, a repair at 30/85 of them, the
// agent's empty restart at 50/85 and a second repair at 60/85.
func (cl *modelCluster) drive(mem *Memory, cfg load.Config) (load.Result, error) {
	total := int64(cfg.Clients) * int64(cfg.OpsPerClient)
	res := load.Result{Ops: total, Streams: make([]*load.Stream, cfg.Clients)}
	var ops, gate, running atomic.Int64
	gate.Store(total * 15 / 100)
	running.Store(int64(cfg.Clients))
	errc := make(chan error, cfg.Clients)
	var wg sync.WaitGroup
	for i := range res.Streams {
		s, io := load.NewStream(i, cfg), mem.Client(i)
		res.Streams[i] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer running.Add(-1)
			for !s.Done() {
				for ops.Load() >= gate.Load() {
					goruntime.Gosched()
				}
				if err := s.Step(io); err != nil {
					errc <- err
					return
				}
				ops.Add(1)
			}
		}()
	}
	// hold lets the load run to operation at and holds it there; false
	// when the load ended first.
	hold := func(at int64) bool {
		gate.Store(at)
		for ops.Load() < at && running.Load() > 0 {
			goruntime.Gosched()
		}
		return ops.Load() >= at
	}
	mapped := func() bool {
		slabs := cl.host.SlabLoad()
		for i, n := range slabs {
			if n > slabs[cl.victim] {
				cl.victim = i
			}
		}
		return slabs[cl.victim] > 0
	}
	// Past 15 %, let the load on eight operations at a time until a slab is mapped.
	for at := total * 15 / 100; hold(at) && !mapped(); at += 8 {
	}
	crashed := ops.Load()
	left := total - crashed
	cl.faults[cl.victim].SetMode(remote.FaultMode{Crashed: true})
	errs := []error{cl.host.MarkFailed(cl.victim)}
	hold(crashed + left*30/85)
	errs = append(errs, cl.repair())
	hold(crashed + left*50/85)
	cl.agents[cl.victim].Reset()
	_, err := cl.host.PurgeAgent(cl.victim)
	errs = append(errs, err, cl.host.MarkRecovered(cl.victim))
	cl.faults[cl.victim].SetMode(remote.FaultMode{})
	hold(crashed + left*60/85)
	errs = append(errs, cl.repair())
	gate.Store(math.MaxInt64)
	wg.Wait()
	close(errc)
	for err := range errc {
		errs = append(errs, err)
	}
	return res, errors.Join(errs...)
}

func (cl *modelCluster) repair() error {
	_, err := cl.host.RepairSlabs()
	return err
}

// settled repairs once more and checks the crash left replication whole
// and a trace: failovers past the dead agent, or calls failed by injection
// (which of the two depends on how the crash-repair window fell).
func (cl *modelCluster) settled() error {
	if err := cl.repair(); err != nil {
		return err
	}
	if n := cl.host.UnderReplicated(); n != 0 {
		return fmt.Errorf("the final repair left %d slabs under-replicated", n)
	}
	if _, injected := cl.faults[cl.victim].Stats(); injected == 0 && cl.host.Stats().Failovers == 0 {
		return fmt.Errorf("the crash of agent %d left no trace: no failovers, no injected failures", cl.victim)
	}
	return nil
}
