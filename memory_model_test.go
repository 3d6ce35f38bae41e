package leap

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"math/rand"
	"net"
	"os"
	goruntime "runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"leap/internal/chaos"
	"leap/internal/core"
	"leap/internal/load"
	"leap/internal/prefetch"
	"leap/internal/remote"
	"leap/internal/sim"
)

// The Memory model is the runtime's executable specification: a tape — a
// drawn configuration and a list of steps — played against a Memory over a
// drawn kind of link, and checked after every step against a page map of
// every byte stored (reads), the shard invariants and the counter
// conservation laws; at the end against the page map, the load streams'
// oracles and every acked replica's bytes. Faults are steps too: chaos
// events, played by the chaos applier, at points a chaos schedule puts them,
// its times read as fractions of the tape's operations.

type memOp string

// The steps of a tape.
const (
	mRead   memOp = "read"   // a data page read whole through a client, checked against the page map
	mWrite  memOp = "write"  // a data page written whole through a client
	mStore  memOp = "store"  // n bytes stored at off: within a page, or across into the next
	mChurn  memOp = "churn"  // twice the budget of never-stored pages read through, so the resident set turns over
	mFlush  memOp = "flush"  // Flush, which must not fail
	mAdvise memOp = "advise" // Client.Advise
	mTick   memOp = "tick"   // TickControl
	mLoad   memOp = "load"   // every load stream steps n operations, on goroutines or on the tape's
	mFault  memOp = "fault"  // a chaos event
	mExpect memOp = "expect" // the tape's own assertion
)

// memOps is every kind of step; the corpus must take each.
var memOps = []memOp{mRead, mWrite, mStore, mChurn, mFlush, mAdvise, mTick, mLoad, mFault}

type memStep struct {
	op     memOp
	client int
	page   core.PageID // read, write: the data page; advise: the first page
	off    int64       // store
	n      int         // store: bytes; advise: pages; load: operations a stream
	advice Advice
	event  chaos.Event
	at     int64     // a fault during a load: the load's operation it lands at
	during []memStep // a load's faults, in the order they land
	check  func(*memRun) error
	what   string // an expect's
}

func (s memStep) String() string {
	switch s.op {
	case mRead, mWrite:
		return fmt.Sprintf("%s page %d by client %d", s.op, s.page, s.client)
	case mStore:
		return fmt.Sprintf("store %d B at %d (page %d+%d)", s.n, s.off, s.off/RemotePageSize, s.off%RemotePageSize)
	case mAdvise:
		return fmt.Sprintf("advise %d over [%d,+%d) by client %d", s.advice, s.page, s.n, s.client)
	case mLoad:
		var b strings.Builder
		fmt.Fprintf(&b, "load %d ops a stream", s.n)
		for _, f := range s.during {
			fmt.Fprintf(&b, "; at op %d: %s", f.at, f.event)
		}
		return b.String()
	case mFault:
		return "fault " + s.event.String()
	case mExpect:
		return "expect " + s.what
	}
	return string(s.op)
}

// The kinds of link a tape's Memory runs over: its own private cluster; or two
// to four agents behind fault transports, in process, over links that hold
// every write's ack until someone waits for it, over links that move trains
// and hold read replies too, or over loopback TCP.
var memLinks = []string{"private", "inproc", "held", "trains", "tcp"}

var (
	modelShards = []int{1, 2, 4, 8}
	modelDepths = []int{1, 2, 8}
)

// memTape is a configuration and the steps to play on it. seed is the Memory's
// seed and, for a drawn tape, what it was drawn from; replay is the -run
// pattern that replays a drawn tape under LEAP_SEED.
type memTape struct {
	seed                       uint64
	replay                     string
	link                       string
	agents                     int
	shards, depth, capacity    int
	tierPages                  int // 0: no compressed tier
	wire, ensemble, advise     bool
	control                    bool
	load                       load.Config // the streams load steps play; Goroutines 0 plays them on the tape's goroutine
	sched                      chaos.Schedule
	steps                      []memStep
	dataPages, storeOps, loads int    // a draw's
	name                       string // a literal tape's
	// offReplay replays the tape with every option it leaves off given
	// explicitly off; the two runs' Stats must be equal.
	offReplay bool
}

func onOff(b bool) string { return map[bool]string{false: "off", true: "on"}[b] }

// axes names the value the tape takes on each axis; the corpus must take every
// value of every axis.
func (tp *memTape) axes() []string {
	return []string{"link=" + tp.link, fmt.Sprint("shards=", tp.shards), fmt.Sprint("depth=", tp.depth),
		"tier=" + onOff(tp.tierPages > 0), "wire=" + onOff(tp.wire), "ensemble=" + onOff(tp.ensemble),
		"advise=" + onOff(tp.advise), "control=" + onOff(tp.control), "goroutines=" + onOff(tp.load.Goroutines > 0)}
}

func (tp *memTape) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tape %#x: %s agents=%d capacity=%d tier=%d pages, load %+v, schedule %q\n",
		tp.seed, strings.Join(tp.axes(), " "), tp.agents, tp.capacity, tp.tierPages, tp.load, tp.sched.Name)
	for i, s := range tp.steps {
		fmt.Fprintf(&b, "  %3d %s\n", i, s)
	}
	return b.String()
}

// faultHorizon is the span a tape's chaos schedule is drawn over: an event at
// a tenth of it lands after a tenth of the tape's operations.
const faultHorizon = 10 * sim.Millisecond

// dataPage is the page map's data page i: every seventh page above the load's
// span, so that a prefetch window around one finds pages with no remote image
// and leaves the dirty backlog queued. Churn reads pages above the data pages
// that are never stored, which come and go as zeros without touching the wire.
func (tp *memTape) dataPage(i int) core.PageID { return core.PageID(tp.load.Span() + int64(i)*7) }

// drawMemTape draws a tape from seed: the link and the stripe count from its
// low digits, so consecutive seeds cross them, and every other axis from an
// RNG it seeds; pins then fix what a slice of the model is about. The steps
// are stores, writes, reads, churns, flushes, advice and ticks, with the load
// streams' operations in two to four segments among them; where the link has
// fault transports, a chaos schedule's events go in among them too.
func drawMemTape(seed uint64, pins ...func(*memTape)) memTape {
	rng := sim.NewRNG(seed)
	tp := memTape{
		seed:      seed,
		replay:    "^TestMemoryModel$",
		link:      memLinks[seed%uint64(len(memLinks))],
		shards:    modelShards[seed/uint64(len(memLinks))%uint64(len(modelShards))],
		depth:     modelDepths[rng.Intn(len(modelDepths))],
		agents:    2 + rng.Intn(3),
		wire:      rng.Intn(2) == 1,
		ensemble:  rng.Intn(2) == 1,
		advise:    rng.Intn(2) == 1,
		dataPages: 64,
		storeOps:  200,
		loads:     2 + rng.Intn(3),
	}
	tp.control = tp.link == "private" && rng.Intn(2) == 1
	if tp.link == "inproc" { // room to drain one
		tp.agents += 2
	}
	if rng.Intn(2) == 1 {
		tp.tierPages = 16 + rng.Intn(48)
	}
	tp.load = load.Config{Clients: 3, OpsPerClient: 250, PagesPerClient: 48}
	if rng.Intn(2) == 1 {
		tp.load = load.Config{Clients: 4, Goroutines: 4, OpsPerClient: 300, PagesPerClient: 64}
	}
	windows := rng.Intn(4)
	for _, pin := range pins {
		pin(&tp)
	}
	if tp.link == "private" { // Compress is a host's, and only a host passed in has one to set
		tp.wire = false
	}
	tp.load.Seed = seed
	if tp.capacity == 0 {
		tp.capacity = 32 + rng.Intn(int(tp.load.Span())/2+1)
	}
	if tp.sched.Name == "" && tp.link != "private" && windows > 0 {
		tp.sched = chaos.RandomSchedule(rng.Uint64(), chaos.GenConfig{Agents: tp.agents, Horizon: faultHorizon,
			MaxWindows: windows, Elastic: tp.link == "inproc"})
		if rng.Intn(3) == 0 {
			tp.sched = withoutRepairs(tp.sched)
		}
	}

	tail := tp.steps // a pin's steps close the tape
	tp.steps = nil
	b := &memBuilder{tp: &tp, rng: rng}
	per := make([]int, tp.loads) // each load segment's operations a stream
	for i := range tp.load.OpsPerClient {
		per[i%tp.loads]++
	}
	at := make([]int, tp.loads) // the store operation each follows
	for i := range at {
		at[i] = rng.Intn(tp.storeOps + 1)
	}
	slices.Sort(at)
	for op, seg := 0, 0; op <= tp.storeOps; op++ {
		for ; seg < len(at) && at[seg] == op; seg++ {
			if per[seg] > 0 {
				b.add(memStep{op: mLoad, n: per[seg]})
			}
		}
		if op < tp.storeOps {
			b.storeOp()
		}
	}
	tp.steps = append(tp.steps, tail...)
	tp.placeFaults()
	return tp
}

// withoutRepairs keeps a schedule's partition and flaky windows, all moved
// onto the agent of the first, and drops its repairs and every other event:
// the agent serves on with the writes it missed, and a write must send it
// whole pages. (Without repairs, faults on two agents could leave a page no
// reachable copy of its last write.)
func withoutRepairs(s chaos.Schedule) chaos.Schedule {
	var events []chaos.Event
	for _, e := range s.Events {
		switch e.Kind {
		case chaos.Partition, chaos.Heal, chaos.FlakyStart, chaos.FlakyEnd:
			if len(events) > 0 {
				e.Agent = events[0].Agent
			}
			events = append(events, e)
		}
	}
	return chaos.Schedule{Name: s.Name + "-unrepaired", Events: events}
}

// memBuilder draws steps onto a tape.
type memBuilder struct {
	tp  *memTape
	rng *sim.RNG
}

func (b *memBuilder) add(steps ...memStep) { b.tp.steps = append(b.tp.steps, steps...) }
func (b *memBuilder) client() int          { return b.rng.Intn(b.tp.load.Clients) }

// store is a store of a random size — a byte, a cache line, up to 600 bytes, a
// page, a page and a bit — somewhere in data page i: within it, or from inside
// it across into the next page, or the one after.
func (b *memBuilder) store(i int) memStep {
	n := []int{1, 64, 1 + b.rng.Intn(600), RemotePageSize, RemotePageSize + 1 + b.rng.Intn(900)}[b.rng.Intn(5)]
	at := 0
	if n < RemotePageSize {
		at = b.rng.Intn(RemotePageSize - n + 1)
	} else if n > RemotePageSize && b.rng.Intn(2) == 0 {
		at = b.rng.Intn(RemotePageSize)
	}
	return memStep{op: mStore, client: b.client(), off: int64(b.tp.dataPage(i))*RemotePageSize + int64(at), n: n}
}

func (b *memBuilder) read(i int) memStep {
	return memStep{op: mRead, client: b.client(), page: b.tp.dataPage(i)}
}

// storeOp adds one drawn operation on the page map.
func (b *memBuilder) storeOp() {
	i := b.rng.Intn(b.tp.dataPages)
	switch k := b.rng.Intn(24); {
	case k < 8:
		b.add(b.store(i))
	case k < 10:
		b.add(memStep{op: mWrite, client: b.client(), page: b.tp.dataPage(i)})
	case k < 15:
		b.add(b.read(i))
	case k < 17:
		b.add(memStep{op: mChurn})
	case k < 19:
		// Two stores to one page with an eviction after each: the second
		// writeback meets the first still queued.
		b.add(b.store(i), memStep{op: mChurn}, b.read(i), b.store(i), memStep{op: mChurn})
	case k < 20:
		b.add(memStep{op: mFlush})
	case k < 22 && b.tp.advise:
		span := int64(b.tp.dataPage(b.tp.dataPages))
		b.add(memStep{op: mAdvise, client: b.client(), advice: Advice(b.rng.Intn(4)),
			page: core.PageID(b.rng.Int63n(span)), n: 1 + b.rng.Intn(40)})
	case k < 22 && b.tp.control:
		b.add(memStep{op: mTick})
	default:
		b.add(b.read(i))
	}
}

// weight is what a step counts for among the tape's operations: a load, the
// operations of one of its streams.
func (tp *memTape) weight(s memStep) int64 {
	if s.op == mLoad {
		return int64(s.n)
	}
	return 1
}

// placeFaults puts the schedule's events among the steps, each at the fraction
// of the tape's operations its time is of the schedule's span: before the step
// it lands on, or inside a load at the operation it lands at.
func (tp *memTape) placeFaults() {
	if len(tp.sched.Events) == 0 {
		return
	}
	var total int64
	for _, s := range tp.steps {
		total += tp.weight(s)
	}
	var steps []memStep
	events, cum := tp.sched.Events, int64(0)
	land := func(e chaos.Event) int64 {
		return min(total-1, int64(float64(total)*float64(e.At)/float64(faultHorizon)))
	}
	for _, s := range tp.steps {
		w := tp.weight(s)
		for len(events) > 0 && land(events[0]) < cum+w {
			f := memStep{op: mFault, event: events[0]}
			if s.op == mLoad && land(events[0]) > cum {
				f.at = (land(events[0]) - cum) * int64(tp.load.Clients)
				s.during = append(s.during, f)
			} else {
				steps = append(steps, f)
			}
			events = events[1:]
		}
		steps = append(steps, s)
		cum += w
	}
	for _, e := range events {
		steps = append(steps, memStep{op: mFault, event: e})
	}
	tp.steps = steps
}

// memCorpus is TestMemoryModel's fixed set of tape seeds.
func memCorpus() []uint64 {
	seeds := make([]uint64, 40)
	for i := range seeds {
		seeds[i] = 0x30DE1<<16 | uint64(i)
	}
	return seeds
}

// memRegressions are TestMemoryModel's literal tapes, each run by name.
func memRegressions() []memTape {
	return []memTape{agentCrashRepair(), queuedThroughRepair()}
}

// TestMemoryModel plays the corpus and the literal tapes, after checking that
// the corpus takes every value of every axis, every kind of step and every
// kind of fault; LEAP_SEED=<seed> go test -run '^TestMemoryModel$' . replays
// the drawn tape a failure names.
func TestMemoryModel(t *testing.T) {
	if seed, ok := replaySeed(t); ok {
		runMemTape(t, drawMemTape(seed))
		return
	}
	seen := map[string]bool{}
	for _, seed := range memCorpus() {
		tp := drawMemTape(seed)
		for _, a := range tp.axes() {
			seen[a] = true
		}
		for _, s := range tp.steps {
			seen[string(s.op)] = true
			if s.op == mFault {
				seen[faultName(s.event.Kind)] = true
			}
			for _, f := range s.during {
				seen["fault during a load"], seen[faultName(f.event.Kind)] = true, true
			}
		}
	}
	// Every link, stripe count and depth, both values of six on/off axes,
	// every step, the kinds of fault that act on a Memory's host, a fault
	// during a load.
	want := []string{"fault during a load"}
	for _, l := range memLinks {
		want = append(want, "link="+l)
	}
	for _, n := range modelShards {
		want = append(want, fmt.Sprint("shards=", n))
	}
	for _, d := range modelDepths {
		want = append(want, fmt.Sprint("depth=", d))
	}
	for _, axis := range []string{"tier", "wire", "ensemble", "advise", "control", "goroutines"} {
		want = append(want, axis+"=on", axis+"=off")
	}
	for _, op := range memOps {
		want = append(want, string(op))
	}
	for _, k := range []chaos.Kind{chaos.Crash, chaos.Restart, chaos.Partition, chaos.Heal, chaos.FlakyStart,
		chaos.Repair, chaos.ScaleUp, chaos.ScaleDown} {
		want = append(want, faultName(k))
	}
	if missing := slices.DeleteFunc(want, func(w string) bool { return seen[w] }); len(missing) > 0 {
		t.Errorf("the corpus never takes %v", missing)
	}
	for _, seed := range memCorpus() {
		t.Run(fmt.Sprintf("%#x", seed), func(t *testing.T) { runMemTape(t, drawMemTape(seed)) })
	}
	for _, tp := range memRegressions() {
		t.Run(tp.name, func(t *testing.T) { runMemTape(t, tp) })
	}
}

// faultName names a kind of fault by its schedule verb.
func faultName(k chaos.Kind) string {
	return "fault " + strings.Fields(chaos.Event{Kind: k}.String())[1]
}

// FuzzMemoryModel searches tape seeds beyond the corpus (go test -fuzz
// FuzzMemoryModel). Outside fuzzing the corpus is TestMemoryModel's to run.
func FuzzMemoryModel(f *testing.F) {
	if flag.Lookup("test.fuzz").Value.String() != "" {
		for _, seed := range memCorpus() {
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64) { runMemTape(t, drawMemTape(seed)) })
}

// replaySeed is the tape seed LEAP_SEED names, if it is set.
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

// modelSlice plays n tapes drawn with pins applied, from seeds of the test's
// own; LEAP_SEED=<seed> go test -run '^<test>$' . replays one. The tests below
// are such slices, each pinned to the feature it names.
func modelSlice(t *testing.T, n int, pins ...func(*memTape)) {
	pins = append([]func(*memTape){func(tp *memTape) { tp.replay = "^" + t.Name() + "$" }}, pins...)
	if seed, ok := replaySeed(t); ok {
		runMemTape(t, drawMemTape(seed, pins...))
		return
	}
	h := fnv.New64a()
	h.Write([]byte(t.Name()))
	for i := range n {
		runMemTape(t, drawMemTape(h.Sum64()<<8|uint64(i), pins...))
	}
}

// Pins of the slices.
func oneGoroutine(tp *memTape) {
	tp.load = load.Config{Clients: 3, OpsPerClient: 250, PagesPerClient: 48}
}

func onGoroutines(tp *memTape) {
	if tp.load.Goroutines == 0 {
		tp.load = load.Config{Clients: 4, Goroutines: 4, OpsPerClient: 300, PagesPerClient: 64}
	}
}

func withTier(tp *memTape) { tp.tierPages = max(tp.tierPages, 32) }

func shards(n int) func(*memTape) { return func(tp *memTape) { tp.shards = n } }

// crashRestart crashes agent 0 of four in-process agents, repairs, restarts it
// empty and repairs again, at 15, 40, 57 and 66 % of the tape, under the least
// budget a draw takes and no tier, so that writebacks have placed slabs on it
// before it crashes; a closing check wants a trace of the crash: slabs it held
// re-replicated, reads failed over past it, or calls to it failed.
func crashRestart(tp *memTape) {
	tp.link, tp.agents, tp.capacity, tp.tierPages = "inproc", 4, 32, 0
	tp.sched, _ = chaos.Parse("crash-repair-restart", "1500µs crash 0\n4ms repair\n5700µs restart 0\n6600µs repair")
	tp.steps = append(tp.steps, memStep{op: mExpect, what: "the crash of agent 0 left a trace", check: func(r *memRun) error {
		_, injected := r.rig.Faults[0].Stats()
		if st := r.host.Stats(); injected == 0 && st.Failovers == 0 && st.Repairs == 0 {
			return errors.New("no slab re-replicated, no failovers, no injected failures")
		}
		return nil
	}})
}

// TestMemoryReadYourWritesProperty: on one goroutine and one stripe, every
// read observes the last store and the final image is the page map's.
func TestMemoryReadYourWritesProperty(t *testing.T) { modelSlice(t, 2, oneGoroutine, shards(1)) }

// TestMemoryZtierReadYourWritesProperty: read-your-writes on one goroutine
// through the compressed tier, which must seal pages.
func TestMemoryZtierReadYourWritesProperty(t *testing.T) { modelSlice(t, 2, oneGoroutine, withTier) }

// TestMemoryAdviseReadYourWritesProperty: read-your-writes on one goroutine
// with Advise calls of all four kinds between steps and the ensemble on.
func TestMemoryAdviseReadYourWritesProperty(t *testing.T) {
	modelSlice(t, 2, oneGoroutine, func(tp *memTape) { tp.advise, tp.ensemble = true, true })
}

// TestMemoryShardedInvariantsProperty: on one goroutine over several
// stripes, the shard invariants hold after every step.
func TestMemoryShardedInvariantsProperty(t *testing.T) {
	modelSlice(t, 2, oneGoroutine, func(tp *memTape) { tp.shards = max(tp.shards, 4) })
}

// offReplay pins a tape to the private cluster on one goroutine with no
// control plane, where it is deterministic, and replays it with the options it
// leaves off given explicitly off.
func offReplay(tp *memTape) {
	oneGoroutine(tp)
	tp.link, tp.control, tp.offReplay = "private", false, true
}

// TestMemoryZtierOffIsIdentical: tapes with no tier replay with
// WithCompressedTier(0) to equal Stats, and report no tier activity.
func TestMemoryZtierOffIsIdentical(t *testing.T) {
	modelSlice(t, 2, offReplay, func(tp *memTape) { tp.tierPages = 0 })
}

// TestMemoryEnsembleOffIsIdentical: tapes with no ensemble replay with
// WithPrefetcherFactory(leap) to equal Stats, and report no selector
// activity.
func TestMemoryEnsembleOffIsIdentical(t *testing.T) {
	modelSlice(t, 2, offReplay, func(tp *memTape) { tp.ensemble = false })
}

// TestMemoryConcurrentStress: goroutines through per-client handles on one
// stripe, every access counted once and the host seeing traffic.
func TestMemoryConcurrentStress(t *testing.T) { modelSlice(t, 1, onGoroutines, shards(1)) }

// TestMemoryConcurrentStressSharedPages: eight goroutines over a narrow
// span and a budget of a quarter of it, so concurrent faults pile onto the
// same pages.
func TestMemoryConcurrentStressSharedPages(t *testing.T) {
	modelSlice(t, 1, func(tp *memTape) {
		tp.capacity = 48
		tp.load = load.Config{Clients: 8, Goroutines: 8, OpsPerClient: 300, PagesPerClient: 24}
	})
}

// TestMemoryZtierConcurrentStress: goroutines through the compressed tier.
func TestMemoryZtierConcurrentStress(t *testing.T) { modelSlice(t, 1, onGoroutines, withTier) }

// TestMemoryShardedStress: goroutines across the shards × clients ×
// goroutines grid, each cell checked for exact accesses, the final image
// and the shard invariants.
func TestMemoryShardedStress(t *testing.T) {
	for _, g := range []struct{ shards, clients, goroutines int }{{2, 4, 4}, {4, 8, 8}, {8, 8, 8}} {
		t.Run(fmt.Sprintf("shards=%d_clients=%d_goroutines=%d", g.shards, g.clients, g.goroutines), func(t *testing.T) {
			modelSlice(t, 1, func(tp *memTape) {
				tp.shards, tp.capacity = g.shards, 128
				tp.load = load.Config{Clients: g.clients, Goroutines: g.goroutines, OpsPerClient: 150, PagesPerClient: 64}
			})
		})
	}
}

// TestMemoryEnsembleStress: goroutines with the ensemble on and an Advise
// goroutine; the ensemble must close epochs.
func TestMemoryEnsembleStress(t *testing.T) {
	modelSlice(t, 1, onGoroutines, func(tp *memTape) { tp.ensemble, tp.advise = true, true })
}

// TestMemoryConcurrentChaosCrashRepair: the crash → repair → restart →
// repair schedule under goroutines on one stripe.
func TestMemoryConcurrentChaosCrashRepair(t *testing.T) {
	modelSlice(t, 1, onGoroutines, shards(1), crashRestart)
}

// TestMemoryShardedChaosCrashRepair: the same schedule over four stripes,
// so failover and purge interleave with every stripe's lock.
func TestMemoryShardedChaosCrashRepair(t *testing.T) {
	modelSlice(t, 1, onGoroutines, shards(4), crashRestart)
}

// outages is a schedule that partitions agent 0 n times, each time for one
// (2n+1)th of the tape, and repairs nothing: the agent misses writes while it
// is out and must be sent whole pages when it is back.
func outages(n int) chaos.Schedule {
	s, gap := chaos.Schedule{Name: fmt.Sprintf("%d-outages", n)}, faultHorizon/sim.Duration(2*n+1)
	for k := range sim.Duration(n) {
		s.Events = append(s.Events, chaos.Event{At: (2*k + 1) * gap, Kind: chaos.Partition}, chaos.Event{At: (2*k + 2) * gap, Kind: chaos.Heal})
	}
	return s
}

// TestStoreModel: stores of random sizes read back against the page map on one
// goroutine, under a budget that turns nearly every access into an eviction —
// dirty hulls written back as ranges, refaulted from the dirty backlog and
// superseded there, through the compressed tier (which keeps no hull) — over 1
// and 4 stripes, two agents, and every kind of link with fault transports,
// while the first agent drops out a dozen times and comes back unrepaired.
func TestStoreModel(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, tier := range []int{0, 24} {
			for _, link := range memLinks[1:] {
				t.Run(fmt.Sprintf("shards%d/tier%dK/%s", shards, tier*RemotePageSize>>10, link), func(t *testing.T) {
					modelSlice(t, 1, oneGoroutine, func(tp *memTape) {
						tp.link, tp.shards, tp.tierPages, tp.agents, tp.capacity, tp.depth = link, shards, tier, 2, 64, 8
						tp.wire, tp.ensemble, tp.advise, tp.storeOps, tp.sched = false, false, false, 400, outages(12)
						tp.load.OpsPerClient = 60
						if tier == 0 {
							tp.steps = append(tp.steps, memStep{op: mExpect, what: "the tape covered ranges, dirty refaults and supersedes",
								check: func(r *memRun) error {
									if st := r.mem.Stats().Host; st.RangeWrites == 0 || st.DirtyReads == 0 || st.AsyncWrites == st.Writes {
										return fmt.Errorf("%+v", st)
									}
									return nil
								}})
						}
					})
				})
			}
		}
	}
}

// fault is a literal tape's chaos event: k, of agent.
func fault(k chaos.Kind, agent int) memStep {
	return memStep{op: mFault, event: chaos.Event{Kind: k, Agent: agent}}
}

// TestMemoryAllReplicasDown plays the all-down tape with one frame in flight
// a link.
func TestMemoryAllReplicasDown(t *testing.T) { runMemTape(t, allReplicasDown(1)) }

// TestMemoryTransientOutageRecovers plays the all-down tape with four.
func TestMemoryTransientOutageRecovers(t *testing.T) { runMemTape(t, allReplicasDown(4)) }

// allReplicasDown: both agents, and so every replica of every slab, are
// partitioned: a demand read of an evicted page fails, names the page
// unreachable and advances the clock, attempt after attempt; the outage was
// read-only trouble, so Flush stays nil; healed, every page reads back intact.
func allReplicasDown(depth int) memTape {
	tp := memTape{name: "all-replicas-down", seed: 3, link: "inproc", agents: 2, shards: 1, depth: depth, capacity: 16,
		load: load.Config{Clients: 1, PagesPerClient: 1}}
	for i := range 128 {
		tp.steps = append(tp.steps, memStep{op: mWrite, page: tp.dataPage(i)})
	}
	tp.steps = append(tp.steps, memStep{op: mFlush}, fault(chaos.Partition, 0), fault(chaos.Partition, 1),
		memStep{op: mExpect, what: "reads of an evicted page fail as injected and unreachable, and the clock moves on",
			check: func(r *memRun) error {
				for attempt := range 3 {
					before := r.mem.Now()
					r.accesses++
					_, err := r.mem.Get(r.tape.dataPage(0))
					switch {
					case err == nil:
						return fmt.Errorf("attempt %d: Get succeeded with every replica partitioned", attempt)
					case !errors.Is(err, remote.ErrInjected) || !strings.Contains(err.Error(), "unreachable"):
						return fmt.Errorf("attempt %d: error %q is not an injected fault naming the page unreachable", attempt, err)
					case r.mem.Now() <= before:
						return fmt.Errorf("attempt %d: the clock did not advance across a failed fault", attempt)
					}
				}
				return nil
			}},
		memStep{op: mFlush}, fault(chaos.Heal, 0), fault(chaos.Heal, 1),
		memStep{op: mExpect, what: "healed, the same Get faults the page in intact",
			check: func(r *memRun) error {
				pg, faults := r.tape.dataPage(0), r.mem.Stats().Faults
				r.accesses++
				if got, err := r.mem.Get(pg); err != nil || r.mem.Stats().Faults == faults || !bytes.Equal(got, r.images[pg][:]) {
					return fmt.Errorf("Get of page %d after heal: a fault %v, error %v, bytes intact %v", pg,
						r.mem.Stats().Faults > faults, err, err == nil && bytes.Equal(got, r.images[pg][:]))
				}
				return nil
			}},
		memStep{op: mRead, page: tp.dataPage(0)})
	return tp
}

// agentCrashRepair: a working set far past the budget lands on four agents;
// one crashes and reads fail over to its replicas; a repair re-replicates onto
// the survivors while new pages are written; the agent restarts empty and is
// repaired onto again — and every byte written stays readable throughout.
func agentCrashRepair() memTape {
	tp := memTape{name: "agent-crash-repair", seed: 13, link: "inproc", agents: 4, shards: 1, depth: 8, capacity: 64,
		load: load.Config{Clients: 1, PagesPerClient: 1}}
	pass := func(op memOp, from, to int) {
		for i := from; i < to; i++ {
			tp.steps = append(tp.steps, memStep{op: op, page: tp.dataPage(i)})
		}
	}
	pass(mWrite, 0, 512)
	pass(mRead, 0, 512)
	tp.steps = append(tp.steps, fault(chaos.Crash, 1))
	pass(mRead, 0, 512)
	tp.steps = append(tp.steps, memStep{op: mExpect, what: "reads failed over past the crashed agent", check: func(r *memRun) error {
		if st := r.host.Stats(); st.Failovers == 0 {
			return fmt.Errorf("no failovers: %+v", st)
		}
		return nil
	}}, fault(chaos.Repair, -1), memStep{op: mExpect, what: "the repair restored replication", check: func(r *memRun) error {
		if n := r.host.UnderReplicated(); n != 0 {
			return fmt.Errorf("%d slabs under-replicated", n)
		}
		return nil
	}})
	pass(mWrite, 512, 640)
	pass(mRead, 0, 640)
	tp.steps = append(tp.steps, fault(chaos.Restart, 1), fault(chaos.Repair, -1))
	pass(mRead, 0, 640)
	return tp
}

// queuedThroughRepair: with agent 1 partitioned, five pages of a slab nothing
// has mapped yet are written back, and their writes queue for the one replica
// the slab can be placed on. Agent 1 heals and the repair copies the slab onto
// it while the writes are still queued; they land after it. Agent 0 then
// crashes, and every page must read back from agent 1 — where the writes,
// cut for the slab's old placement, went to agent 0 alone, they read as zeros.
func queuedThroughRepair() memTape {
	tp := memTape{name: "queued-through-repair", seed: 5, link: "inproc", agents: 2, shards: 1, depth: 8, capacity: 16,
		load: load.Config{Clients: 1, PagesPerClient: 1}}
	tp.steps = append(tp.steps, fault(chaos.Partition, 1))
	for i := range 5 {
		tp.steps = append(tp.steps, memStep{op: mWrite, page: tp.dataPage(i)})
	}
	tp.steps = append(tp.steps, memStep{op: mChurn}, memStep{op: mExpect, what: "the writebacks are queued for agent 0 alone",
		check: func(r *memRun) error {
			if st := r.host.Stats(); st.Writes != 5 || st.AsyncWrites != 5 {
				return fmt.Errorf("%+v", st)
			}
			return nil
		}}, fault(chaos.Heal, 1), fault(chaos.Repair, -1), memStep{op: mFlush}, fault(chaos.Crash, 0))
	for i := range 5 {
		tp.steps = append(tp.steps, memStep{op: mRead, page: tp.dataPage(i)})
	}
	return tp
}

// memRun is a tape being played: the Memory, its host and the applier of its
// faults, the page map, the load streams, and what the tape has counted.
type memRun struct {
	t       *testing.T
	tape    *memTape
	mem     *Memory
	host    *RemoteHost
	rig     *chaos.Applier
	links   []*remote.ScriptedLink
	images  map[core.PageID]*[RemotePageSize]byte
	streams []*load.Stream
	ios     []load.IO
	rng     *rand.Rand
	sel     selectors // the ensemble's, when the tape runs one
	// churnAt is where the next churn reads, cycling through a window of
	// never-stored pages above the data pages.
	churnAt, churnBase, churnSpan core.PageID
	accesses                      int64
}

// span is the pages the shard invariants are checked over: every page the
// tape touches.
func (r *memRun) span() core.PageID { return r.churnBase + r.churnSpan }

// newMemRun opens the tape's Memory over its link; with off, with every option
// the tape leaves off given explicitly off.
func newMemRun(t *testing.T, tape *memTape, off bool) *memRun {
	r := &memRun{t: t, tape: tape, images: map[core.PageID]*[RemotePageSize]byte{}, rng: rand.New(rand.NewSource(int64(tape.seed)))}
	top := tape.dataPage(tape.dataPages)
	for _, s := range tape.steps {
		top = max(top, s.page+1, core.PageID((s.off+int64(s.n))/RemotePageSize)+1)
	}
	r.churnBase, r.churnSpan = top+1, core.PageID(2*tape.capacity)
	r.churnAt = r.churnBase
	opts := []Option{WithSeed(tape.seed*0x9E3779B97F4A7C15 + 1), WithShards(tape.shards), WithCacheCapacity(tape.capacity),
		WithQueueDepth(tape.depth)}
	opts = append(opts, r.options(off)...)
	if tape.link != "private" {
		r.rig = &chaos.Applier{Replicas: 2, Provision: r.provision, Now: func() sim.Time { return r.mem.Now() }}
		var trs []RemoteTransport
		for i := range tape.agents {
			ag, ft, tr := r.provision(i)
			r.rig.Agents, r.rig.Faults, trs = append(r.rig.Agents, ag), append(r.rig.Faults, ft), append(trs, tr)
		}
		h, err := NewRemoteHost(RemoteHostConfig{SlabPages: 64, Replicas: 2, QueueDepth: tape.depth, Seed: tape.seed,
			Compress: tape.wire}, trs)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.Close() })
		r.rig.Host = h
		opts = append(opts, WithRemoteHost(h))
	}
	mem, err := Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mem.Close() })
	r.mem, r.host = mem, mem.Host()
	for i := range tape.load.Clients {
		r.streams = append(r.streams, load.NewStream(i, tape.load))
		r.ios = append(r.ios, load.IO(mem.Client(i)))
		if i%2 == 1 {
			r.ios[i] = getIO{mem.Client(i)}
		}
	}
	return r
}

// options are the Memory options the tape's configuration asks for, beyond
// its sizes and link; with off, also every option it leaves off, explicitly.
// The ensemble is a prefetcher factory whose selectors r keeps.
func (r *memRun) options(off bool) []Option {
	var opts []Option
	tp := r.tape
	if tp.tierPages > 0 || off {
		opts = append(opts, WithCompressedTier(int64(tp.tierPages)*RemotePageSize))
	}
	if tp.ensemble {
		r.sel.cfg = prefetch.EnsembleConfig{EpochFaults: 8, SwitchStreak: 1}
		opts = append(opts, WithPrefetcherFactory(r.sel.factory))
	} else if off {
		opts = append(opts, WithPrefetcherFactory(func() Prefetcher { return prefetch.NewLeap(PredictorConfig{}) }))
	}
	if tp.control {
		opts = append(opts, WithControlPlane(ControlConfig{}))
	}
	return opts
}

// provision builds agent idx and its link of the tape's kind: the agent behind
// a fault transport, and that behind a held or a train link, or the agent
// served on loopback TCP and dialled behind it.
func (r *memRun) provision(idx int) (*remote.Agent, *remote.FaultTransport, remote.Transport) {
	ag := remote.NewAgent(64, 0)
	var inner remote.Transport = remote.NewInProc(ag)
	if r.tape.link == "tcp" {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.t.Fatal(err)
		}
		r.t.Cleanup(func() { l.Close() })
		go ag.Serve(l)
		if inner, err = remote.DialTCP(l.Addr().String()); err != nil {
			r.t.Fatal(err)
		}
	}
	ft := remote.NewFaultTransport(idx, inner, sim.NewRNG(r.tape.seed*31+uint64(idx)))
	if r.tape.link != "held" && r.tape.link != "trains" {
		return ag, ft, ft
	}
	// Held links hold every write frame's ack, train links read replies too,
	// until somebody waits for them; a pump lets them go then, in order on a
	// held link and in a drawn order on a train link.
	mode, pick := remote.Split, func(int) int { return 0 }
	if r.tape.link == "trains" {
		mode, pick = remote.Trains, rand.New(rand.NewSource(int64(r.tape.seed)+int64(idx))).Intn
	}
	l := remote.NewScriptedLink(ft, mode, nil, func(req *remote.Request) remote.Verdict {
		write := req.Op == remote.OpWrite || req.Op == remote.OpWriteBatch || req.Op == remote.OpWriteRanges
		return remote.Verdict{Hold: write || mode == remote.Trains && req.Op == remote.OpReadBatch}
	})
	stop := l.Pump(pick, func(int) {})
	r.t.Cleanup(stop)
	r.links = append(r.links, l)
	return ag, ft, l.Transport()
}

// runMemTape plays tape, each step followed by the standing checks, and closes
// it with every fault healed, a repair and the final checks; then, where the
// tape asks for it, replays it with every option it leaves off given
// explicitly off, to equal Stats.
func runMemTape(t *testing.T, tape memTape) {
	st := playMemTape(t, &tape, false)
	if tape.offReplay {
		if off := playMemTape(t, &tape, true); off != st {
			t.Fatalf("%s\nwith the options it leaves off given explicitly off, the tape's Stats differ:\n%+v\n---\n%+v", &tape, st, off)
		}
	}
}

func playMemTape(t *testing.T, tape *memTape, off bool) MemoryStats {
	wd := deadlockWatchdog(120*time.Second, fmt.Sprintf("tape %#x", tape.seed))
	defer wd.Stop()
	r := newMemRun(t, tape, off)
	fail := func(i int, step string, err error) {
		t.Helper()
		replay := fmt.Sprintf("LEAP_SEED=%#x go test -run '%s' .", tape.seed, tape.replay)
		if tape.name != "" {
			replay = fmt.Sprintf("go test -run '^%s$' .", strings.ReplaceAll(t.Name(), "/", "$/^"))
		}
		t.Fatalf("%s\ntape %#x: step %d (%s): %v\nreplay with %s", tape, tape.seed, i, step, err, replay)
	}
	for i, s := range tape.steps {
		if err := r.do(s); err != nil {
			fail(i, s.String(), err)
		}
		if err := r.standing(); err != nil {
			fail(i, s.String(), err)
		}
	}
	if err := r.final(); err != nil {
		fail(len(tape.steps), "the final checks", err)
	}
	return r.mem.Stats()
}

// getIO reads a page through Client.Get, the handle's copying view.
type getIO struct{ *MemoryClient }

func (g getIO) ReadAt(p []byte, off int64) (int, error) {
	b, err := g.Get(PageID(off / RemotePageSize))
	return copy(p, b), err
}

// do plays one step.
func (r *memRun) do(s memStep) error {
	switch s.op {
	case mRead:
		return r.check(s.client, s.page)
	case mWrite:
		return r.store(s.client, int64(s.page)*RemotePageSize, RemotePageSize)
	case mStore:
		return r.store(s.client, s.off, s.n)
	case mChurn:
		var b [1]byte
		for range 2 * r.tape.capacity {
			r.accesses++
			if _, err := r.mem.ReadAt(b[:], int64(r.churnAt)*RemotePageSize); err != nil {
				return err
			}
			if r.churnAt++; r.churnAt == r.churnBase+r.churnSpan {
				r.churnAt = r.churnBase
			}
		}
	case mFlush:
		if err := r.mem.Flush(); err != nil {
			return fmt.Errorf("Flush: %w", err)
		}
	case mAdvise:
		return r.mem.Client(s.client).Advise(s.advice, s.page, s.n)
	case mTick:
		r.mem.TickControl()
	case mLoad:
		return r.playLoad(s)
	case mFault:
		if r.rig == nil {
			return errors.New("a fault on a link without fault transports")
		}
		// A repair with an agent down may find no spare agent to copy onto;
		// one with every agent healthy must not fail.
		if err := r.rig.Apply(s.event); err != nil && (s.event.Kind != chaos.Repair || r.rig.Healthy()) {
			return err
		}
	case mExpect:
		return s.check(r)
	}
	return nil
}

// store writes n random bytes at off through client's handle, and into the
// page map.
func (r *memRun) store(client int, off int64, n int) error {
	data := make([]byte, n)
	r.rng.Read(data)
	r.accesses += (off+int64(n)-1)/RemotePageSize - off/RemotePageSize + 1
	if _, err := r.mem.Client(client).WriteAt(data, off); err != nil {
		return fmt.Errorf("store of %d B at %d: %w", n, off, err)
	}
	for len(data) > 0 {
		pg := core.PageID(off / RemotePageSize)
		if r.images[pg] == nil {
			r.images[pg] = new([RemotePageSize]byte)
		}
		c := copy(r.images[pg][off%RemotePageSize:], data)
		data, off = data[c:], off+int64(c)
	}
	return nil
}

// check reads page through client's handle — ReadAt, or Get for an odd client
// — against the page map.
func (r *memRun) check(client int, pg core.PageID) error {
	got := make([]byte, RemotePageSize)
	r.accesses++
	var err error
	if client%2 == 1 {
		var b []byte
		b, err = r.mem.Client(client).Get(pg)
		copy(got, b)
	} else {
		_, err = r.mem.Client(client).ReadAt(got, int64(pg)*RemotePageSize)
	}
	if err != nil {
		return fmt.Errorf("page %d: %w", pg, err)
	}
	want := make([]byte, RemotePageSize)
	if img := r.images[pg]; img != nil {
		copy(want, img[:])
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("page %d reads back wrong from byte %d", pg, i)
		}
	}
	return nil
}

// playLoad has every stream step s.n operations: on the tape's goroutine in a
// seeded interleave, with advice drawn between steps and the shard invariants
// checked every 64 operations, or on goroutines, with advice from one more.
// It holds the load at each of its faults' operations while the fault is
// played.
func (r *memRun) playLoad(s memStep) error {
	cfg := r.tape.load
	total := int64(s.n) * int64(cfg.Clients)
	r.accesses += total
	faults := s.during
	if cfg.Goroutines == 0 {
		left := make([]int, cfg.Clients)
		for i := range left {
			left[i] = s.n
		}
		sched, hints := sim.NewRNG(r.tape.seed^0xC0FFEE+uint64(r.accesses)), sim.NewRNG(r.tape.seed^0xAD5E+uint64(r.accesses))
		for ops := int64(0); ops < total; {
			for len(faults) > 0 && faults[0].at <= ops {
				if err := r.do(faults[0]); err != nil {
					return fmt.Errorf("%s: %w", faults[0], err)
				}
				faults = faults[1:]
			}
			c := sched.Intn(cfg.Clients)
			if left[c] == 0 {
				continue
			}
			if r.tape.advise && hints.Intn(4) == 0 {
				if err := adviseOnce(r.mem, hints, cfg); err != nil {
					return err
				}
			}
			if err := r.streams[c].Step(r.ios[c]); err != nil {
				return err
			}
			left[c]--
			if ops++; ops%64 == 0 {
				if err := r.mem.CheckShardInvariants(r.span()); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// The workers pass a gate before each operation: the next fault's
	// operation, which they wait at until it has been played.
	var mu sync.Mutex
	moved := sync.NewCond(&mu)
	ops, gate, running := int64(0), int64(math.MaxInt64), min(cfg.Goroutines, cfg.Clients)
	if len(faults) > 0 {
		gate = faults[0].at
	}
	workers := running
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { mu.Lock(); running--; moved.Broadcast(); mu.Unlock() }()
			for k := 0; k < s.n; k++ {
				for c := w; c < cfg.Clients; c += workers {
					mu.Lock()
					for ops >= gate {
						moved.Wait()
					}
					mu.Unlock()
					if err := r.streams[c].Step(r.ios[c]); err != nil {
						errc <- err
						return
					}
					mu.Lock()
					ops++
					moved.Broadcast()
					mu.Unlock()
				}
			}
		}()
	}
	stop := func() error { return nil }
	if r.tape.advise {
		stop = adviseLoad(r.mem, r.tape.seed+uint64(r.accesses), load.Config{Clients: cfg.Clients, OpsPerClient: s.n, PagesPerClient: cfg.PagesPerClient})
	}
	var errs []error
	for len(faults) > 0 {
		// Let the load run to the fault's operation, hold it there, play the
		// fault and let it on to the next.
		mu.Lock()
		for ops < faults[0].at && running > 0 {
			moved.Wait()
		}
		mu.Unlock()
		if err := r.do(faults[0]); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", faults[0], err))
		}
		mu.Lock()
		if faults = faults[1:]; len(faults) > 0 {
			gate = faults[0].at
		} else {
			gate = math.MaxInt64
		}
		moved.Broadcast()
		mu.Unlock()
	}
	wg.Wait()
	errs = append(errs, stop())
	close(errc)
	for err := range errc {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
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

// standing runs the checks that hold after every step: the shard invariants,
// every access counted once, and on one goroutine the conservation laws —
// nothing waits on another's fault, and every access and every fault is
// counted once (DESIGN.md "Counters").
func (r *memRun) standing() error {
	if err := r.mem.CheckShardInvariants(r.span()); err != nil {
		return err
	}
	st := r.mem.Stats()
	if st.Accesses != r.accesses {
		return fmt.Errorf("%d accesses counted, want one a page an operation touched: %d", st.Accesses, r.accesses)
	}
	if r.tape.load.Goroutines == 0 && (st.DemandWaits != 0 || st.ResidentHits+st.Faults != st.Accesses ||
		st.CacheHits+st.InflightHits+st.Ztier.Hits+st.Misses != st.Faults) {
		return fmt.Errorf("demand waits or counters not conserved on one goroutine: %+v", st)
	}
	return nil
}

// replicasAgree churns the budget through and flushes, so that every stored
// byte is on the host unless the compressed tier holds it, repairs once more,
// and then reads every page of the page map straight off each agent that
// acked it: every acked copy is the page map's image, or with a tier, the
// same as the other acked copies.
func (r *memRun) replicasAgree() error {
	if r.tape.tierPages == 0 {
		if err := r.do(memStep{op: mChurn}); err != nil {
			return err
		}
	}
	if err := r.mem.Flush(); err != nil {
		return fmt.Errorf("Flush: %w", err)
	}
	if _, err := r.host.RepairSlabs(); err != nil {
		return fmt.Errorf("the final repair: %w", err)
	}
	if n := r.host.UnderReplicated(); n != 0 {
		return fmt.Errorf("the final repair left %d slabs under-replicated", n)
	}
	for _, pg := range slices.Sorted(maps.Keys(r.images)) {
		var want []byte
		if r.tape.tierPages == 0 {
			want = r.images[pg][:]
		}
		acked := r.host.AckedReplicas(pg)
		if len(acked) == 0 && want != nil {
			return fmt.Errorf("page %d has no acked replica", pg)
		}
		req := &remote.Request{Op: remote.OpRead, Slab: r.host.SlabOf(pg), PageOff: uint32(pg % 64)}
		for _, a := range acked {
			got := r.rig.Agents[a].Handle(req).Payload
			if want == nil {
				want = got
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("page %d: acked agent %d of %v holds other bytes", pg, a, acked)
			}
		}
	}
	return nil
}

// final heals every fault and checks the end of the tape: Flush; every page of
// the page map and of the load's streams reads back its last bytes; a repair
// leaves no slab under-replicated; links landed their flights in order; and
// each option the tape turns on engaged, and each it leaves off stayed still.
func (r *memRun) final() error {
	if r.rig != nil {
		if err := r.rig.HealAll(); err != nil {
			return err
		}
	}
	if err := r.mem.Flush(); err != nil {
		return fmt.Errorf("Flush: %w", err)
	}
	for _, pg := range slices.Sorted(maps.Keys(r.images)) {
		if err := r.check(0, pg); err != nil {
			return err
		}
	}
	r.accesses += r.tape.load.Span()
	if err := load.VerifyFinal(r.mem, r.tape.load, r.streams); err != nil {
		return err
	}
	if r.rig != nil {
		if err := r.replicasAgree(); err != nil {
			return err
		}
	}
	if err := r.standing(); err != nil {
		return err
	}
	for i, l := range r.links {
		if n := l.OutOfOrder(); n > 0 && r.tape.load.Goroutines == 0 {
			return fmt.Errorf("link %d: %d flights were waited for ahead of an older one", i, n)
		}
	}
	st, tp := r.mem.Stats(), r.tape
	if st.Evictions == 0 || tp.tierPages == 0 && st.WritebackPages == 0 {
		return fmt.Errorf("the budget evicted nothing, or wrote nothing back: %+v", st)
	}
	if tp.tierPages == 0 && (st.Faults == 0 || st.Host.Reads == 0 || st.Host.Writes == 0) {
		return fmt.Errorf("no remote traffic without a tier: %+v", st)
	}
	// The stored fallback holds the ratio of incompressible pages just under
	// 1; broken accounting would show 0.
	if tp.tierPages > 0 && (!st.Ztier.Enabled || st.Ztier.Seals == 0 || st.Ztier.Ratio <= 0.5) {
		return fmt.Errorf("the tier never sealed a page or its ratio is under 0.5: %+v", st.Ztier)
	}
	if tp.tierPages == 0 && st.Ztier != (MemoryZtierStats{}) {
		return fmt.Errorf("a tape with no tier reports tier activity: %+v", st.Ztier)
	}
	if _, ens := r.mem.Prefetcher().(*prefetch.Ensemble); ens != tp.ensemble {
		return fmt.Errorf("the Memory runs a selector: %v, on a tape whose ensemble is %s", ens, onOff(tp.ensemble))
	}
	if clients, epochs, _ := r.sel.totals(); tp.ensemble && (clients == 0 || tp.load.Goroutines > 0 && epochs == 0) {
		return fmt.Errorf("the ensemble never engaged: %d clients, %d epochs", clients, epochs)
	}
	if st.Control.Enabled != tp.control {
		return fmt.Errorf("control stats enabled %v on a tape whose control plane is %s", st.Control.Enabled, onOff(tp.control))
	}
	return nil
}
