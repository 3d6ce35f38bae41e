package remote

import (
	"bytes"
	"cmp"
	"flag"
	"fmt"
	"hash/fnv"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"leap/internal/core"
	"leap/internal/sim"
)

// The host model is the ticket engine's executable specification: a tape — a
// host configuration, steps and a release order — played against a Host whose
// agents sit behind FaultTransports behind ScriptedLinks, and checked after
// every step against a page map of every image issued for each page: reads
// (checkRead), the unacked window and detached buffers (standing), repairs
// (checkRepaired); and at every Flush, tickets, landing order, ack sets and
// every page's newest image (barrier).

type opKind string

// The steps of a tape. A step may name what it makes — a ticket, a goroutine,
// a trigger or a result — for later steps to refer to.
const (
	opWrite         opKind = "write"      // WritePageRangeAsync of [lo,hi)
	opHandOff       opKind = "hand-off"   // HandOffPageRange of [lo,hi), the spare scribbled over and handed off next
	opWritePage     opKind = "write-page" // WritePageAsync
	opWriteSync     opKind = "write-sync" // WritePage
	opRead          opKind = "read"       // ReadPage
	opReadAsync     opKind = "read-async" // ReadPageAsync
	opStartRead     opKind = "start-read" // StartRead and its Wait, from a goroutine of its own
	opReadVia       opKind = "read-via"   // ReadPage of a clean page through link, which lands what is older there
	opDetach        opKind = "detach"     // Detach read tickets, then reuse their buffers
	opSubmit        opKind = "submit"     // Submit; its result is 1 when frames are left flying
	opFlush         opKind = "flush"      // Flush, and the barrier's checks
	opFlushBG       opKind = "flush-bg"   // Flush from a goroutine of its own
	opWait          opKind = "wait"       // Ticket.Wait of tickets, in order, from a second goroutine
	opHold          opKind = "hold"       // hold link's responses (on CallOnly, read frames'); link -1 is every link
	opRelease       opKind = "release"    // let them go, and stop the link's pump
	opPump          opKind = "pump"       // let held responses go as they are waited for, in the tape's release order
	opTrigger       opKind = "trigger"    // at link's next frame of op frame (0: any; link -1: any), run then inside it
	opPartition     opKind = "partition"  // agent link fails every call
	opFlaky         opKind = "flaky"      // agent link fails half its write frames
	opHeal          opKind = "heal"       // agent link is reachable again
	opSlow          opKind = "slow"       // hint agent link slow (SetAgentSlow), or with clear no longer
	opMarkFailed    opKind = "mark-failed"
	opMarkRecovered opKind = "mark-recovered"
	opPurge         opKind = "purge"   // agent link is partitioned, loses its memory (Agent.Reset) and is purged
	opCrash         opKind = "crash"   // agent link's process dies (FaultMode.Crashed) and the host is told (MarkFailed)
	opRestart       opKind = "restart" // agent link comes back empty: Agent.Reset, PurgeAgent, MarkRecovered
	opRepair        opKind = "repair"
	opRebalance     opKind = "rebalance"
	opRetire        opKind = "retire"
	opReinstate     opKind = "reinstate"
	opReplicateHot  opKind = "replicate-hot" // one extra holder for page
	opDropHot       opKind = "drop-hot"
	opExpect        opKind = "expect" // the tape's own assertion
)

// opKinds is every kind of step; the corpus must take each.
var opKinds = []opKind{opWrite, opHandOff, opWritePage, opWriteSync, opRead, opReadAsync, opStartRead, opReadVia, opDetach,
	opSubmit, opFlush, opFlushBG, opWait, opHold, opRelease, opPump, opTrigger, opPartition, opFlaky, opHeal,
	opSlow, opMarkFailed, opMarkRecovered, opPurge, opCrash, opRestart, opRepair, opRebalance, opRetire, opReinstate, opReplicateHot,
	opDropHot, opExpect}

type tapeOp struct {
	kind   opKind
	name   string
	page   core.PageID
	lo, hi int
	link   int
	frame  uint8
	clear  bool // a slow step's
	refs   []string
	then   []tapeOp
	check  func(*hostRun) bool // an expect's; name says what it expects
}

func (op tapeOp) String() string {
	return fmt.Sprintf("%s %q page %d [%d,%d) link %d %v", op.kind, op.name, op.page, op.lo, op.hi, op.link, op.refs)
}

func at(kind opKind, page core.PageID) tapeOp { return tapeOp{kind: kind, page: page} }
func on(kind opKind, link int) tapeOp         { return tapeOp{kind: kind, link: link} }
func named(name string, op tapeOp) tapeOp     { op.name = name; return op }
func wait(refs ...string) tapeOp              { return tapeOp{kind: opWait, refs: refs} }
func slow(link int, on bool) tapeOp           { return tapeOp{kind: opSlow, link: link, clear: !on} }
func expect(what string, check func(*hostRun) bool) tapeOp {
	return tapeOp{kind: opExpect, name: what, check: check}
}

var (
	submit = tapeOp{kind: opSubmit}
	flush  = tapeOp{kind: opFlush}
	repair = tapeOp{kind: opRepair}
	rebal  = tapeOp{kind: opRebalance}
)

func done(want bool, names ...string) func(*hostRun) bool {
	return func(r *hostRun) bool {
		return !slices.ContainsFunc(names, func(n string) bool { return r.tickets[n].t.Done() != want })
	}
}

func acked(page core.PageID, n int) func(*hostRun) bool {
	return func(r *hostRun) bool { return len(r.h.AckedReplicas(page)) >= n }
}

func fired(trigger string) func(*hostRun) bool {
	return func(r *hostRun) bool { return r.results[trigger] == 1 }
}

// hostTape is a host configuration, the steps to play on it, and its pumps'
// release order. seed is the placement seed and, for a drawn tape, what it was
// drawn from; replay is the -run pattern that replays it under LEAP_SEED.
type hostTape struct {
	seed                               uint64
	replay                             string
	mode                               Mode
	agents, replicas, depth, slabPages int
	compress                           bool
	ops                                []tapeOp
	picks                              []int
	// A draw's pages in play, and the scenarios it plays, cycles times each.
	pages, cycles int
	mix           []string
}

// The axes a tape's configuration is drawn from, and compression on or off.
var (
	modelModes       = []Mode{CallOnly, Split, Trains}
	modelAgents      = []int{2, 3, 4}
	modelReplicas    = []int{1, 2}
	modelQueueDepths = []int{1, 2, 4, 8}
	modelSlabs       = []int{1, 8}
)

func (tp *hostTape) axes() []string {
	return []string{"mode=" + []string{"CallOnly", "Split", "Trains"}[tp.mode], fmt.Sprint("agents=", tp.agents),
		fmt.Sprint("replicas=", tp.replicas), fmt.Sprint("depth=", tp.depth), fmt.Sprint("slab=", tp.slabPages),
		fmt.Sprint("compress=", tp.compress)}
}

// A scenario appends one interleaving to a tape, ending at a barrier, where
// the configuration admits it (ok).
type scenario struct {
	ok  func(*hostTape) bool
	gen func(*tapeBuilder)
}

func always(*hostTape) bool        { return true }
func split(tp *hostTape) bool      { return tp.mode != CallOnly } // responses may be held while the tape goes on
func replicated(tp *hostTape) bool { return tp.replicas == 2 }    // a replica may fail
func spare(tp *hostTape) bool      { return tp.agents > tp.replicas }
func outage(tp *hostTape) bool     { return replicated(tp) && spare(tp) }

var scenarios = map[string]scenario{
	"traffic": {always, func(b *tapeBuilder) { b.traffic(4 + b.rng.Intn(12)); b.add(flush) }},
	"supersede": {always, func(b *tapeBuilder) {
		p := b.page()
		b.add(b.write(p), b.write(p))
		b.writes(2)
		b.add(b.write(p), flush)
	}},
	// A sweep of every page, in batches where the depth allows.
	"sweep": {always, func(b *tapeBuilder) {
		var before int64
		b.add(expect("", func(r *hostRun) bool { before = r.h.Stats().BatchCalls; return true }))
		for p := range b.tp.pages {
			b.add(at(opReadAsync, core.PageID(p)))
		}
		b.add(flush, expect("the sweep went in batches", func(r *hostRun) bool {
			return r.h.cfg.QueueDepth == 1 || r.h.Stats().BatchCalls > before
		}))
	}},
	// A write of p on the wire, its response held; more queued behind it.
	"behind": {split, func(b *tapeBuilder) {
		p := b.page()
		b.add(b.hold(), b.write(p), named(b.name(), tapeOp{kind: opFlushBG}), b.write(p), at(opRead, p))
		b.writes(3)
		b.add(b.write(p), b.release(), flush, expect("every replica acked the newest write", acked(p, b.tp.replicas)))
	}},
	// Writes in the air, acks held, links answering one by one, a read through each.
	"out-of-step": {split, func(b *tapeBuilder) {
		p, flying := b.page(), b.name()
		b.add(b.hold(), b.write(p))
		b.writes(3)
		b.add(named(flying, submit), expect("Submit leaves the writes flying", func(r *hostRun) bool {
			return r.results[flying] == 1
		}), at(opRead, p))
		for _, i := range b.rng.Perm(b.tp.agents) {
			b.add(on(opRelease, i), on(opReadVia, i))
			b.writes(2)
			b.add(at(opRead, p))
		}
		b.add(b.release(), flush)
	}},
	// A read detached in the air; its coalesced sibling still gets the page.
	"detach": {split, func(b *tapeBuilder) {
		p, gone, kept := b.page(), b.name(), b.name()
		b.add(b.hold(), named(gone, at(opReadAsync, p)), named(kept, at(opReadAsync, p)), submit,
			tapeOp{kind: opDetach, refs: []string{gone}}, b.release(), named(b.name(), wait(kept)), flush,
			expect("the detached read completes", done(true, gone)))
	}},
	// Held reads waited for from two goroutines, up and down, as a pump lets go.
	"ticket-waits": {split, func(b *tapeBuilder) {
		b.add(b.hold())
		reads := b.reads(2 + b.rng.Intn(7))
		b.writes(b.rng.Intn(4))
		down := wait(slices.Clone(reads)...)
		slices.Reverse(down.refs)
		b.add(submit, expect("no read completes before a response arrives", done(false, reads...)), on(opPump, -1),
			named(b.name(), wait(reads...)), named(b.name(), down), flush, b.release())
	}},
	// Flush, and a held write's Wait, on goroutines of their own, wait for it to land.
	"barrier": {split, func(b *tapeBuilder) {
		p, w, f, wt := b.page(), b.name(), b.name(), b.name()
		b.add(b.hold())
		b.reads(b.rng.Intn(6))
		b.add(submit, named(w, at(opWritePage, p)), named(f, tapeOp{kind: opFlushBG}), named(wt, wait(w)),
			expect("Flush and Wait block while every response is held", func(r *hostRun) bool {
				return len(r.bg[f]) == 0 && len(r.bg[wt]) == 0
			}), b.release(), flush, expect("the write is acked", acked(p, b.tp.replicas)))
	}},
	"dirty-race": {func(tp *hostTape) bool { return tp.mode == CallOnly }, func(b *tapeBuilder) {
		b.add(dirtyRace(b.page(), b.rng.Intn(2) == 0)...)
	}},
	// A replica failing half its writes, then partitioned and healed with no
	// repair; a few pages rewritten all along, in ranges where it may lack a base.
	// Healed, it is fast and stale where it missed writes, and every other agent
	// is hinted slow for a while: reads go to the slow acked holders.
	"flaky": {replicated, func(b *tapeBuilder) {
		v, p, q := b.agent(), b.page(), b.page()
		b.add(on(opFlaky, v))
		for range 3 {
			b.add(b.write(p), b.write(q))
			b.traffic(4)
			b.add(flush)
		}
		b.add(on(opPartition, v), b.write(p), b.write(q), flush, on(opHeal, v))
		b.slowAllBut(v, true)
		b.add(at(opRead, p), at(opRead, q))
		b.reads(2)
		b.add(flush)
		b.slowAllBut(v, false)
		b.add(b.write(p), b.write(q), flush, repair, flush)
	}},
	// An agent partitioned, failed, repaired around and recovered, with some
	// agent hinted slow throughout.
	"outage": {outage, func(b *tapeBuilder) {
		v, s := b.agent(), b.agent()
		b.add(slow(s, true), on(opPartition, v))
		b.traffic(6)
		b.add(flush, on(opMarkFailed, v), repair)
		b.traffic(6)
		b.add(flush, on(opHeal, v), on(opMarkRecovered, v), repair, rebal, slow(s, false), flush)
	}},
	// An agent restarts empty with reads and writes queued for it.
	"purge": {replicated, func(b *tapeBuilder) {
		v := b.agent()
		b.reads(1 + b.rng.Intn(4))
		for range 1 + b.rng.Intn(4) {
			b.add(named(b.name(), at(opWritePage, b.page())))
		}
		b.add(on(opPurge, v), flush)
		if spare(b.tp) {
			b.add(on(opMarkFailed, v), repair, flush)
		}
		b.add(on(opHeal, v), on(opMarkRecovered, v), repair, rebal, flush)
	}},
	// An agent crashes with frames to it in the air, or on a link that
	// finishes what it starts queued, and the host is told; traffic goes on
	// around it, and it restarts empty, to be repaired onto.
	"crash": {replicated, func(b *tapeBuilder) {
		v, held := b.agent(), split(b.tp)
		if held {
			b.add(b.hold())
		}
		b.writes(2 + b.rng.Intn(4))
		if held {
			b.reads(b.rng.Intn(3))
			b.add(submit)
		}
		b.add(on(opCrash, v))
		if held && b.rng.Intn(2) == 0 {
			// It restarts with the frames still in the air, which the purge
			// lands first: an ack of its old memory must not outlive it.
			b.add(on(opPump, -1), on(opRestart, v), b.release(), flush)
			b.traffic(6)
			b.add(repair, rebal, flush)
			return
		}
		if held {
			b.add(b.release())
		}
		b.traffic(6)
		b.add(flush)
		if spare(b.tp) {
			b.add(repair, flush)
		}
		b.add(on(opRestart, v), repair, rebal, flush)
	}},
	// A hot copy, its slab migrated off a retired agent, the copy dropped.
	"hot": {spare, func(b *tapeBuilder) {
		p, v := b.page(), b.agent()
		b.add(at(opReplicateHot, p), b.write(p))
		b.writes(4)
		b.add(flush, on(opRetire, v), rebal, b.write(p))
		b.writes(4)
		b.add(flush, at(opDropHot, p), on(opReinstate, v), rebal, flush)
	}},
	// A write between ReplicateHot's source read and its install.
	"hot-race": {spare, func(b *tapeBuilder) {
		p, trig, hot := b.page(), b.name(), b.name()
		b.add(at(opDropHot, p),
			tapeOp{kind: opTrigger, name: trig, link: -1, frame: OpRead, then: []tapeOp{at(opWriteSync, p)}},
			named(hot, at(opReplicateHot, p)), expect("the write raced the copy", fired(trig)),
			expect("one hot holder added, and certified", func(r *hostRun) bool {
				holders := r.h.HotHolders(p)
				return r.results[hot] == 1 && len(holders) == 1 && slices.Contains(r.h.AckedReplicas(p), holders[0])
			}), flush)
	}},
	"repush-race": {func(tp *hostTape) bool { return tp.agents == 2 && tp.replicas == 2 }, func(b *tapeBuilder) {
		p := b.page()
		b.add(repushRace(b.agent(), p, (p+1)%core.PageID(b.tp.pages), b.tp.mode != CallOnly)...)
	}},
	// A repair copies onto a page's hot holder, and a write of the page lands
	// inside the copy's source read.
	"repair-hot": {func(tp *hostTape) bool { return tp.agents == 3 && tp.replicas == 2 }, func(b *tapeBuilder) {
		b.add(repairHot(b.tp, b.name(), b.rng.Intn(b.tp.pages/b.tp.slabPages), b.rng.Intn(2))...)
	}},
	// An agent recovers inside the repair that replaces it. A slab a page, so
	// that the agent holds slabs, and the repair has work.
	"recover-race": {func(tp *hostTape) bool { return outage(tp) && tp.slabPages == 1 }, func(b *tapeBuilder) {
		v, trig, again := b.agent(), b.name(), b.name()
		b.add(on(opPartition, v), on(opMarkFailed, v),
			tapeOp{kind: opTrigger, name: trig, link: -1, then: []tapeOp{on(opHeal, v), on(opMarkRecovered, v)}},
			repair, expect("the agent recovered inside the repair", func(r *hostRun) bool {
				return r.results[trig] == 1 && len(r.h.FailedAgents()) == 0
			}),
			on(opHeal, v), on(opMarkRecovered, v), flush, rebal, named(again, rebal),
			expect("Rebalance converged", func(r *hostRun) bool { return r.results[again] == 0 }), flush)
	}},
}

// dirtyRace: an early read of page held inside Call, the page rewritten and
// acked — by WritePage, or WritePageAsync and Submit — and a read issued then,
// which must not ride the early one: it returns the new bytes, the early read
// the old.
func dirtyRace(page core.PageID, sync bool) []tapeOp {
	write := []tapeOp{named("w", at(opWritePage, page)), submit, expect("the write is acked", done(true, "w"))}
	if sync {
		write = []tapeOp{at(opWriteSync, page)}
	}
	var old []byte
	return slices.Concat([]tapeOp{on(opHold, -1), named("early", at(opStartRead, page)),
		expect("", func(r *hostRun) bool { v := r.images[page]; old = v[len(v)-1][:]; return true })},
		write, []tapeOp{expect("the early read is held inside Call", func(r *hostRun) bool { return len(r.bg["early"]) == 0 }),
			at(opReadAsync, page), on(opRelease, -1), flush,
			expect("the early read kept the bytes from before the write", func(r *hostRun) bool {
				return bytes.Equal(r.tickets["early"].buf, old)
			})})
}

// repushRace: a repair runs with writes of two degraded pages in the air. The
// write of early started before it, which lands it first; racing's starts
// between the repush's source read and its push, and the repush must leave the
// page to it. Both pages are rewritten while agent away is partitioned, so
// each is acked by the other agent alone.
func repushRace(away int, early, racing core.PageID, split bool) []tapeOp {
	ops := []tapeOp{on(opPartition, away), at(opWriteSync, early), at(opWriteSync, racing), on(opHeal, away),
		expect("both pages are degraded", func(r *hostRun) bool { return r.h.DegradedPages() == 2 }),
		named("early", at(opWritePage, early)), named("early-submit", submit),
		{kind: opTrigger, name: "race", link: -1, frame: OpRead, then: []tapeOp{
			named("racing", at(opWritePage, racing)), named("race-submit", submit)}},
		repair, expect("the repush read a source", fired("race")),
		expect("RepairSlabs landed the write started before it", done(true, "early"))}
	if split {
		ops = append(ops, expect("both writes were left in the air", func(r *hostRun) bool {
			return r.results["early-submit"] == 1 && r.results["race-submit"] == 1
		}), expect("the write started inside the repush is still in the air", done(false, "racing")))
	}
	return append(ops, flush,
		expect("no page is degraded once both writes have landed", func(r *hostRun) bool { return r.h.DegradedPages() == 0 }),
		expect("both replicas acked both pages", func(r *hostRun) bool { return acked(early, 2)(r) && acked(racing, 2)(r) }))
}

// repairHot: on three agents, the k-th of slab's two replicas fails, and the
// repair puts the third agent, the hot holder of page, in its place. page is
// the first of the lowest slab the failed agent holds, so the repair's first
// source read is page's, and a write of page lands inside it: the write reaches
// the holder before the copy's older bytes, which must not overwrite it. The
// holder is a placement replica then, and no longer a hot one: DropHot leaves
// the page's ack set and degraded flag alone.
func repairHot(tp *hostTape, trig string, slab, k int) []tapeOp {
	ranked := (&Host{cfg: HostConfig{Seed: tp.seed}, transports: make([]Transport, tp.agents)}).rendezvousRank
	failed := ranked(SlabID(slab), nil)[k]
	for s := range slab + 1 {
		if slices.Contains(ranked(SlabID(s), nil)[:2], failed) {
			slab = s
			break
		}
	}
	page, holder := core.PageID(slab*tp.slabPages), ranked(SlabID(slab), nil)[2]
	return []tapeOp{rebal, at(opReplicateHot, page), on(opMarkFailed, failed),
		{kind: opTrigger, name: trig, link: -1, frame: OpRead, then: []tapeOp{at(opWriteSync, page)}},
		repair, expect("the write landed inside the copy's source read", fired(trig)),
		expect("the repair put the hot holder in the failed agent's place", func(r *hostRun) bool {
			r.h.mu.Lock()
			defer r.h.mu.Unlock()
			return slices.Contains(r.h.placements[SlabID(slab)], holder) && !slices.Contains(r.h.hot[page], holder)
		}), flush, at(opDropHot, page), expect("DropHot left the page undegraded, acked by its placement", func(r *hostRun) bool {
			r.h.mu.Lock()
			defer r.h.mu.Unlock()
			return len(r.h.degraded) == 0 && !slices.ContainsFunc(r.h.placements[SlabID(slab)], func(a int) bool {
				return !slices.Contains(r.h.rec(page).acked(), a)
			})
		}), on(opMarkRecovered, failed), rebal, flush}
}

// tapeBuilder draws steps onto a tape. While held, links are held: no step
// may wait for the wire, and no doorbell ring but the scenario's own.
type tapeBuilder struct {
	tp    *hostTape
	rng   *sim.RNG
	held  bool
	names int
}

func (b *tapeBuilder) add(ops ...tapeOp) { b.tp.ops = append(b.tp.ops, ops...) }
func (b *tapeBuilder) page() core.PageID { return core.PageID(b.rng.Intn(b.tp.pages)) }
func (b *tapeBuilder) agent() int        { return b.rng.Intn(b.tp.agents) }
func (b *tapeBuilder) name() string      { b.names++; return fmt.Sprint("s", b.names) }
func (b *tapeBuilder) hold() tapeOp      { b.held = true; return on(opHold, -1) }
func (b *tapeBuilder) release() tapeOp   { b.held = false; return on(opRelease, -1) }

// write is a write of page: mostly a range — a byte, up to 300 bytes or the
// page — with a ticket or handed off, else a whole page, async or, with the
// links open, WritePage.
func (b *tapeBuilder) write(page core.PageID) tapeOp {
	switch k := b.rng.Intn(10); {
	case k < 6:
		op := tapeOp{kind: []opKind{opWrite, opHandOff}[b.rng.Intn(2)], page: page, lo: 0, hi: PageSize}
		lo := b.rng.Intn(PageSize)
		if hi := min(PageSize, lo+1+b.rng.Intn(300)*b.rng.Intn(2)); b.rng.Intn(6) > 0 {
			op.lo, op.hi = lo, hi
		}
		return op
	case k < 8 || b.held:
		return at(opWritePage, page)
	}
	return at(opWriteSync, page)
}

func (b *tapeBuilder) writes(n int) {
	for range n {
		b.add(b.write(b.page()))
	}
}

// slowAllBut hints every agent but v slow, or clears the hints.
func (b *tapeBuilder) slowAllBut(v int, on bool) {
	for i := range b.tp.agents {
		if i != v {
			b.add(slow(i, on))
		}
	}
}

// reads adds n ReadPageAsyncs and returns their names.
func (b *tapeBuilder) reads(n int) (names []string) {
	for range n {
		names = append(names, b.name())
		b.add(named(names[len(names)-1], at(opReadAsync, b.page())))
	}
	return names
}

// traffic adds n steps with the links open: half of them writes, the rest
// reads of every kind and doorbells.
func (b *tapeBuilder) traffic(n int) {
	for range n {
		p := b.page()
		steps := []tapeOp{at(opRead, p), at(opReadAsync, p), named(b.name(), at(opStartRead, p)), submit, b.write(p)}
		b.add(steps[min(b.rng.Intn(8), len(steps)-1)])
	}
}

// drawTape draws a tape from seed: the link mode and the agent count from its
// low digits, so consecutive seeds cross them, and the rest of the
// configuration, the release order and the steps from an RNG it seeds; pins
// then fix what a slice of the model is about. The tape writes every page in
// play, then plays each scenario the configuration admits in a drawn order.
func drawTape(seed uint64, pins ...func(*hostTape)) hostTape {
	rng := sim.NewRNG(seed)
	tp := hostTape{
		seed:      seed,
		replay:    "^TestHostModel$",
		mode:      modelModes[seed%3],
		agents:    modelAgents[seed/3%3],
		replicas:  modelReplicas[rng.Intn(2)],
		depth:     modelQueueDepths[rng.Intn(4)],
		slabPages: modelSlabs[rng.Intn(2)],
		compress:  rng.Intn(2) == 1,
		pages:     24,
		cycles:    1,
		mix:       slices.Collect(maps.Keys(scenarios)),
	}
	for range 8 {
		tp.picks = append(tp.picks, rng.Intn(64))
	}
	for _, pin := range pins {
		pin(&tp)
	}
	b := &tapeBuilder{tp: &tp, rng: rng}
	for p := range tp.pages {
		b.add(b.write(core.PageID(p)))
	}
	b.add(flush)
	eligible := slices.DeleteFunc(slices.Sorted(slices.Values(tp.mix)), func(s string) bool { return !scenarios[s].ok(&tp) })
	for range tp.cycles {
		for _, i := range rng.Perm(len(eligible)) {
			scenarios[eligible[i]].gen(b)
		}
	}
	return tp
}

// hostCorpus is TestHostModel's fixed set of tape seeds: 36 in a row.
func hostCorpus() []uint64 {
	var seeds []uint64
	for i := range uint64(36) {
		seeds = append(seeds, 0x4057<<16|i)
	}
	return seeds
}

// hostRegressions are TestHostModel's literal tapes, each named by its seed: a
// seed's drawn tape that caught a defect, cut down to the steps it needs and
// frozen, so that no new scenario or draw can re-draw it into one that does not.
func hostRegressions() []hostTape { return []hostTape{hotAckCounted(), staleCopyOntoAcked()} }

// missedByPlacement is a tape's expectation that page's last write missed a
// placement replica and was acked by a hot holder.
func missedByPlacement(page core.PageID) tapeOp {
	return expect("the write missed a placement replica, and the hot holder acked it", func(r *hostRun) bool {
		h := r.h
		h.mu.Lock()
		defer h.mu.Unlock()
		slab, _ := h.locate(page)
		acks := h.rec(page).acked()
		return h.placedAcks(page, acks) < len(acks) && h.placedAcks(page, acks) < len(h.placements[slab])
	})
}

// hotAckCounted (tape 0x405702cc, frozen): a rewrite of hot page 5 misses a
// placement replica of its slab on a flaky agent, so the page is degraded however
// many acks the hot holder makes up. The holder is purged, and a repair re-pushes
// the page to the replica that missed it before the other replica fails and the
// next repair copies the slab from that one. Where finishWrite counted the
// holder's ack towards Replicas, the page was never degraded nor re-pushed, and
// the copy was stale.
func hotAckCounted() hostTape {
	tp := hostTape{seed: 0x405702cc, replay: "^TestHostModel$/^0x405702cc$", mode: CallOnly, agents: 3, replicas: 2,
		depth: 2, slabPages: 1, compress: true, pages: 8}
	tp.ops = []tapeOp{at(opWritePage, 2), at(opWritePage, 5), flush, at(opReplicateHot, 5), on(opFlaky, 0),
		at(opWritePage, 0), submit, at(opWritePage, 5), flush, missedByPlacement(5), on(opHeal, 0),
		on(opPurge, 1), on(opHeal, 1), repair, on(opMarkFailed, 2), repair}
	return tp
}

// staleCopyOntoAcked (tape 0x4057055d, frozen): a range rewrite of hot page 7
// misses a placement replica on a flaky agent and is acked by the other and the
// hot holder. The other fails, and the repair puts the holder in its place with
// the stale replica as the only source: the holder keeps its newer bytes. Where
// copySlabTo copied onto a target in the page's ack set, the holder stayed acked
// with the stale bytes.
func staleCopyOntoAcked() hostTape {
	tp := hostTape{seed: 0x4057055d, replay: "^TestHostModel$/^0x4057055d$", mode: CallOnly, agents: 3,
		replicas: 2, depth: 1, slabPages: 1, pages: 8}
	tp.ops = []tapeOp{{kind: opWrite, page: 7, lo: 1773, hi: 1802}, at(opWritePage, 8), flush, at(opReplicateHot, 7),
		on(opFlaky, 0), {kind: opWrite, page: 7, lo: 1043, hi: 1227}, flush, missedByPlacement(7), on(opHeal, 0),
		on(opMarkFailed, 2), repair}
	return tp
}

// leapSeed is the tape seed LEAP_SEED names, if it is set.
func leapSeed(t *testing.T) (uint64, bool) {
	env := os.Getenv("LEAP_SEED")
	seed, err := strconv.ParseUint(env, 0, 64)
	if env != "" && err != nil {
		t.Fatalf("bad LEAP_SEED: %v", err)
	}
	return seed, env != ""
}

// TestHostModel plays the corpus, after checking that it takes every value of
// every axis, every kind of step and every kind of trigger; LEAP_SEED=<seed> go
// test -run '^TestHostModel$' ./internal/remote replays the tape a failure names.
func TestHostModel(t *testing.T) {
	if seed, ok := leapSeed(t); ok {
		runHostModel(t, drawTape(seed))
		return
	}
	seen := map[string]bool{}
	tapes := hostRegressions()
	for _, seed := range hostCorpus() {
		tapes = append(tapes, drawTape(seed))
	}
	for _, tp := range tapes {
		for _, op := range tp.ops {
			seen[string(op.kind)] = true
			if op.kind == opTrigger {
				seen[fmt.Sprint("trigger at op ", op.frame)] = true
			}
		}
		for _, a := range tp.axes() {
			seen[a] = true
		}
	}
	if want := len(opKinds) + 2 + len(modelModes) + len(modelAgents) + len(modelReplicas) + len(modelQueueDepths) +
		len(modelSlabs) + 2; len(seen) != want {
		t.Errorf("the corpus takes %d of the %d steps, triggers and axis values: %v", len(seen), want, slices.Sorted(maps.Keys(seen)))
	}
	for _, seed := range hostCorpus() {
		t.Run(fmt.Sprintf("%#x", seed), func(t *testing.T) { runHostModel(t, drawTape(seed)) })
	}
	for _, tp := range hostRegressions() {
		t.Run(fmt.Sprintf("%#x", tp.seed), func(t *testing.T) { runHostModel(t, tp) })
	}
}

// FuzzHostModel searches tape seeds beyond the corpus (go test -fuzz
// FuzzHostModel ./internal/remote). Outside fuzzing the corpus is
// TestHostModel's to run.
func FuzzHostModel(f *testing.F) {
	if flag.Lookup("test.fuzz").Value.String() != "" {
		for _, seed := range hostCorpus() {
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64) { runHostModel(t, drawTape(seed)) })
}

// hostSlice plays n tapes drawn with scenario alone in play, from seeds of the
// test's own whose configuration, pins applied, admits it; LEAP_SEED=<seed> go
// test -run '^<test>$' ./internal/remote replays one.
func hostSlice(t *testing.T, n int, scenario string, pins ...func(*hostTape)) {
	pins = append([]func(*hostTape){func(tp *hostTape) {
		tp.mix, tp.cycles, tp.replay = []string{scenario}, 2, "^"+t.Name()+"$"
	}}, pins...)
	if seed, ok := leapSeed(t); ok {
		runHostModel(t, drawTape(seed, pins...))
		return
	}
	h := fnv.New64a()
	h.Write([]byte(t.Name()))
	for seed := h.Sum64() << 8; n > 0; seed++ {
		if tp := drawTape(seed, pins...); scenarios[scenario].ok(&tp) {
			runHostModel(t, tp)
			n--
		}
	}
}

// hostRun is a tape being played: the host, its agents and links, the page
// map, and what the tape has made.
type hostRun struct {
	tape   *hostTape
	h      *Host
	agents []*Agent
	faults []*FaultTransport
	links  []*ScriptedLink
	state  []agentState
	holds  []atomic.Bool
	trig   atomic.Pointer[tapeOp]
	pumps  []func() // a running pump's stop, per link
	picked atomic.Int64
	// images is the page map: every image the tape has issued for a page,
	// newest last; seqs the writes issued up to the newest.
	images  map[core.PageID][]*[PageSize]byte
	seqs    map[core.PageID]int
	written int
	tickets map[string]*tapeTicket
	open    []*tapeTicket         // not yet checked at a barrier
	cut     []*tapeTicket         // detached, their buffers reused
	bg      map[string]chan error // steps running on goroutines of their own
	results map[string]int        // what steps returned, and 1 for a trigger fired
	trigErr error
	ooo     []int  // each link's OutOfOrder at the last barrier
	spare   []byte // the buffer the last hand-off gave back, scribbled over
	// racy: since the last barrier a frame was launched while a goroutine of
	// the tape's could start one, so that a link's order is their race.
	racy bool
}

// agentState is what the tape did to an agent; since: writes issued when it went down.
type agentState struct {
	down, purged, failed, flaky, retired bool
	since                                int
}

// opTimeout is the watchdog: a step still running after it fails the tape.
const opTimeout = 5 * time.Second

// tapeTicket is a ticket of the tape's; for a read, its buffer and the image
// of its page that was newest when it was issued.
type tapeTicket struct {
	t    *Ticket
	page core.PageID
	buf  []byte
	from int
}

// cutByte is what the tape writes into a detached buffer, and into the buffer
// a hand-off gave back.
const cutByte = 0xA5

func newHostRun(t *testing.T, tape *hostTape) *hostRun {
	n := tape.agents
	r := &hostRun{
		tape:    tape,
		state:   make([]agentState, n),
		holds:   make([]atomic.Bool, n),
		pumps:   make([]func(), n),
		ooo:     make([]int, n),
		images:  map[core.PageID][]*[PageSize]byte{},
		seqs:    map[core.PageID]int{},
		tickets: map[string]*tapeTicket{},
		bg:      map[string]chan error{},
		results: map[string]int{},
	}
	trs := make([]Transport, n)
	for i := range trs {
		a := NewAgent(tape.slabPages, 0)
		ft := NewFaultTransport(i, NewInProc(a), sim.NewRNG(tape.seed*31+uint64(i)))
		l := NewScriptedLink(ft, tape.mode, nil, r.script(i))
		r.agents, r.faults, r.links = append(r.agents, a), append(r.faults, ft), append(r.links, l)
		trs[i] = l.Transport()
	}
	r.h = newHost(t, HostConfig{SlabPages: tape.slabPages, Replicas: tape.replicas, QueueDepth: tape.depth,
		Seed: tape.seed, Compress: tape.compress}, trs)
	t.Cleanup(func() { r.do(&tapeOp{kind: opRelease, link: -1}) })
	return r
}

// script is link i's: it holds what the tape holds there — on a CallOnly link
// read frames alone, for a held write would hold the tape inside Call — and
// runs an armed trigger's steps inside the frame it fires at.
func (r *hostRun) script(i int) func(*Request) Verdict {
	return func(req *Request) (v Verdict) {
		v.Hold = r.holds[i].Load() && (r.tape.mode != CallOnly || req.Op == OpRead || req.Op == OpReadBatch)
		if op := r.trig.Load(); op != nil && (op.link < 0 || op.link == i) && (op.frame == 0 || op.frame == req.Op) &&
			r.trig.CompareAndSwap(op, nil) {
			v.Then = func(*Response, error) {
				r.results[op.name] = 1
				for k := range op.then {
					if err := r.do(&op.then[k]); err != nil && r.trigErr == nil {
						r.trigErr = fmt.Errorf("%s, inside the frame: %w", op.then[k], err)
					}
				}
			}
		}
		return v
	}
}

// runHostModel plays tape, each step under the watchdog and followed by the
// standing checks, and closes it with every link let go and a barrier.
func runHostModel(t *testing.T, tape hostTape) {
	r := newHostRun(t, &tape)
	ops := append(tape.ops, on(opRelease, -1), flush)
	for i := range ops {
		errc := make(chan error, 1)
		go func() {
			err := r.do(&ops[i])
			if err == nil {
				err = r.standing()
			}
			errc <- err
		}()
		var err error
		select {
		case err = <-errc:
		case <-time.After(opTimeout):
			err = fmt.Errorf("still blocked after %v", opTimeout)
		}
		if err != nil {
			replay := fmt.Sprintf("LEAP_SEED=%#x go test -run '%s'", tape.seed, tape.replay)
			if strings.Contains(tape.replay, "/") { // a literal tape of TestHostModel's
				replay = fmt.Sprintf("go test -run '%s'", tape.replay)
			}
			t.Fatalf("tape %#x (%s): op %d (%s): %v\nreplay with %s ./internal/remote",
				tape.seed, strings.Join(tape.axes(), " "), i, ops[i], err, replay)
		}
	}
}

// issue adds a write of [lo,hi) over page's newest image to the page map, every
// byte of the range changed, and returns the new image.
func (r *hostRun) issue(page core.PageID, lo, hi int) []byte {
	img := new([PageSize]byte)
	if v := r.images[page]; len(v) > 0 {
		*img = *v[len(v)-1]
	}
	r.written++
	for i := lo; i < hi; i++ {
		img[i] += byte(1 + (r.written*7+i)%255)
	}
	r.images[page] = append(r.images[page], img)
	r.seqs[page] = r.written
	return img[:]
}

// track keeps a ticket for the barrier; a read's buf is checked against its
// page's images from the newest when it was issued on.
func (r *hostRun) track(name string, t *Ticket, page core.PageID, buf []byte) *tapeTicket {
	tt := &tapeTicket{t: t, page: page, buf: buf, from: len(r.images[page]) - 1}
	r.open = append(r.open, tt)
	if name != "" {
		r.tickets[name] = tt
	}
	return tt
}

func (r *hostRun) checkRead(tt *tapeTicket) error {
	v := r.images[tt.page]
	for k := len(v) - 1; k >= max(tt.from, 0); k-- {
		if bytes.Equal(tt.buf, v[k][:]) {
			return nil
		}
	}
	if bytes.Count(tt.buf, []byte{poisonByte}) == PageSize {
		return fmt.Errorf("read of page %d returned a released buffer's bytes", tt.page)
	}
	return fmt.Errorf("read of page %d returned none of the images issued since it was", tt.page)
}

func (r *hostRun) readPage(page core.PageID) error {
	r.racy = r.racy || len(r.bg) > 0
	tt := &tapeTicket{page: page, buf: make([]byte, PageSize), from: len(r.images[page]) - 1}
	if err := r.h.ReadPage(page, tt.buf); err != nil {
		return fmt.Errorf("ReadPage(%d): %w", page, err)
	}
	return r.checkRead(tt)
}

// spawn runs f on a goroutine of its own as name. With park, the step is one
// that must park on a held response: spawn returns once it has, and fails if
// it returns or half the watchdog passes first. Else spawn returns once f has
// returned or parked, or after a grace in which it may have blocked elsewhere
// (a Ticket.Wait behind a Flush, a goroutine under a pump).
func (r *hostRun) spawn(name string, park bool, f func() error) error {
	parked := func() (n int) {
		for _, l := range r.links {
			l.mu.Lock()
			n += l.waiting
			l.mu.Unlock()
		}
		return n
	}
	done, before := make(chan error, 1), parked()
	go func() { done <- f() }()
	r.bg[name] = done
	limit := 10 * time.Millisecond
	if park {
		limit = opTimeout / 2
	}
	for deadline := time.Now().Add(limit); len(done) == 0 && parked() == before && time.Now().Before(deadline); {
		time.Sleep(50 * time.Microsecond)
	}
	if park && parked() == before {
		return fmt.Errorf("%s did not park on a held response", name)
	}
	return nil
}

// holding reports whether the tape holds any link.
func (r *hostRun) holding() bool {
	for i := range r.holds {
		if r.holds[i].Load() {
			return true
		}
	}
	return false
}

// do plays one step.
func (r *hostRun) do(op *tapeOp) error {
	h := r.h
	s := &r.state[max(op.link, 0)] // the agent of an agent's step
	var err error
	switch op.kind {
	case opWrite, opWritePage:
		if op.kind == opWritePage {
			op.lo, op.hi = 0, PageSize
		}
		t, _, _ := h.WritePageRangeAsync(op.page, r.issue(op.page, op.lo, op.hi), op.lo, op.hi)
		r.track(op.name, t, op.page, nil)
	case opHandOff: // the image goes out in the buffer the last hand-off gave back
		buf := r.spare
		if buf == nil {
			buf = make([]byte, PageSize)
		}
		copy(buf, r.issue(op.page, op.lo, op.hi))
		r.spare, _, _ = h.HandOffPageRange(op.page, buf, op.lo, op.hi)
		copy(r.spare, bytes.Repeat([]byte{cutByte}, PageSize)) // the buffer's next life
	case opWriteSync:
		r.racy = r.racy || len(r.bg) > 0
		err = h.WritePage(op.page, r.issue(op.page, 0, PageSize))
	case opRead:
		err = r.readPage(op.page)
	case opReadAsync:
		tt := r.track(op.name, nil, op.page, make([]byte, PageSize))
		tt.t = h.ReadPageAsync(op.page, tt.buf)
	case opStartRead:
		r.racy = r.racy || len(r.bg) > 0
		tt := r.track(op.name, nil, op.page, make([]byte, PageSize))
		err = r.spawn(op.name, r.holding(), func() error { return h.StartRead(op.page, tt.buf).Wait() })
	case opReadVia: // the first page with no write nor read pending whose read goes to link
		page := -1
		h.mu.Lock()
		for p := range core.PageID(r.tape.pages) {
			if rec := h.rec(p); page < 0 && rec.dirty() == nil && (rec == nil || rec.read == nil) &&
				h.readOrder(p, rec, h.placements[h.SlabOf(p)], nil) == op.link {
				page = int(p)
			}
		}
		h.mu.Unlock()
		if page >= 0 {
			err = r.readPage(core.PageID(page))
		}
	case opDetach:
		for _, ref := range op.refs {
			tt := r.tickets[ref]
			tt.t.Detach()
			copy(tt.buf, bytes.Repeat([]byte{cutByte}, PageSize)) // the buffer's next life
			r.cut = append(r.cut, tt)
			r.open = slices.DeleteFunc(r.open, func(o *tapeTicket) bool { return o == tt })
		}
	case opSubmit:
		var flying bool
		if flying, err = h.Submit(); flying {
			r.results[op.name] = 1
		}
	case opFlush:
		err = r.barrier()
	case opFlushBG:
		err = r.spawn(op.name, true, h.Flush)
	case opWait:
		var tks []*Ticket
		for _, ref := range op.refs {
			tks = append(tks, r.tickets[ref].t)
		}
		err = r.spawn(op.name, false, func() (err error) {
			for _, t := range tks {
				err = cmp.Or(err, t.Wait())
			}
			return err
		})
	case opHold, opRelease, opPump:
		for i := range r.links {
			switch {
			case op.link >= 0 && op.link != i:
			case op.kind == opHold:
				r.holds[i].Store(true)
			case op.kind == opPump && r.pumps[i] == nil:
				r.pumps[i] = r.links[i].Pump(r.pick, func(int) {})
			case op.kind == opRelease:
				r.holds[i].Store(false)
				if stop := r.pumps[i]; stop != nil {
					r.pumps[i] = nil
					stop()
				}
				r.links[i].Release()
			}
		}
	case opTrigger:
		if len(r.bg) > 0 {
			return fmt.Errorf("a trigger needs the tape to itself: %d goroutines of its own are running", len(r.bg))
		}
		r.trig.Store(op)
		return nil
	case opPartition, opPurge:
		r.faults[op.link].SetMode(FaultMode{Partitioned: true})
		if !s.down {
			s.down, s.since = true, r.written
		}
		if op.kind == opPurge { // which must drop the agent from every placement it is in
			r.agents[op.link].Reset()
			s.purged = true
			err = r.purge(op.link)
		}
	case opCrash:
		r.faults[op.link].SetMode(FaultMode{Crashed: true})
		if !s.down {
			s.down, s.since = true, r.written
		}
		s.failed, err = true, h.MarkFailed(op.link)
	case opRestart:
		r.agents[op.link].Reset()
		if err = r.purge(op.link); err == nil {
			err = h.MarkRecovered(op.link)
		}
		r.faults[op.link].SetMode(FaultMode{})
		*s = agentState{retired: s.retired}
	case opFlaky:
		s.flaky = true
		r.faults[op.link].SetMode(FaultMode{WriteFailProb: 0.5})
	case opHeal:
		s.down, s.flaky, s.purged = false, false, false
		r.faults[op.link].SetMode(FaultMode{})
	case opSlow:
		err = h.SetAgentSlow(op.link, !op.clear)
	case opMarkFailed:
		s.failed, err = true, h.MarkFailed(op.link)
	case opMarkRecovered:
		s.failed, err = false, h.MarkRecovered(op.link)
	case opRetire:
		s.retired, err = true, h.Retire(op.link)
	case opReinstate:
		s.retired, err = false, h.Reinstate(op.link)
	case opRepair:
		if r.results[op.name], err = h.RepairSlabs(); err == nil {
			err = r.checkRepaired()
		}
	case opRebalance:
		r.results[op.name], err = h.Rebalance()
	case opReplicateHot:
		r.results[op.name], err = h.ReplicateHot(op.page, 1)
	case opDropHot:
		h.DropHot(op.page)
	case opExpect:
		if !op.check(r) {
			err = fmt.Errorf("expected: %s", op.name)
		}
	}
	r.trig.Store(nil) // a trigger is armed for the step after it alone
	return err
}

// purge has the host purge agent idx, which must drop it from every placement
// it is in.
func (r *hostRun) purge(idx int) error {
	h := r.h
	h.mu.Lock()
	placed := len(slices.DeleteFunc(slices.Collect(maps.Values(h.placements)), func(reps []int) bool {
		return !slices.Contains(reps, idx)
	}))
	h.mu.Unlock()
	if n, err := h.PurgeAgent(idx); err != nil || n != placed {
		return fmt.Errorf("PurgeAgent dropped %d of its %d placements (%v)", n, placed, err)
	}
	return nil
}

// pick is the pumps' release order.
func (r *hostRun) pick(n int) int {
	return r.tape.picks[int(r.picked.Add(1))%len(r.tape.picks)] % n
}

// checkRepaired: after a repair with every agent healthy or marked failed,
// enough of them left and no write pending, no slab lacks a replica and no
// page an ack.
func (r *hostRun) checkRepaired() error {
	live := 0
	for _, s := range r.state {
		if s.flaky || s.retired || s.down && !s.failed {
			return nil
		}
		if !s.failed {
			live++
		}
	}
	if live < r.tape.replicas || slices.ContainsFunc(r.open, func(tt *tapeTicket) bool { return tt.buf == nil && !tt.t.Done() }) {
		return nil
	}
	if n, m := r.h.UnderReplicated(), r.h.DegradedPages(); n != 0 || m != 0 {
		return fmt.Errorf("after a repair with every agent healthy: %d slabs under-replicated, %d pages degraded", n, m)
	}
	return nil
}

// standing runs the checks that hold after every step.
func (r *hostRun) standing() error {
	if r.trigErr != nil {
		return r.trigErr
	}
	for _, tt := range r.cut {
		if bytes.Count(tt.buf, []byte{cutByte}) != PageSize {
			return fmt.Errorf("a response landed in the detached buffer of a read of page %d", tt.page)
		}
	}
	h := r.h
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.links {
		if n := h.links[i].writes; n > unackedFrames {
			return fmt.Errorf("link %d carries %d write frames, over its window of %d", i, n, unackedFrames)
		}
	}
	if h.unacked > len(h.links)*unackedFrames*h.cfg.QueueDepth {
		return fmt.Errorf("%d pages unacked, over %d frames of %d pages a link", h.unacked, unackedFrames, h.cfg.QueueDepth)
	}
	return r.freeListsUnreachable()
}

// freeListsUnreachable: nothing the host can still reach — a queue, a flight in
// the air, a page's record — holds a pendingWrite or an image on its free
// lists, nor does the buffer the tape was handed back. Callers hold h.mu.
func (r *hostRun) freeListsUnreachable() error {
	h := r.h
	free, bufs := map[*pendingWrite]bool{}, map[*byte]bool{}
	for _, pw := range h.writeFree {
		free[pw] = true
	}
	for _, b := range h.bufFree {
		bufs[&b[0]] = true
	}
	if r.spare != nil && bufs[&r.spare[0]] {
		return fmt.Errorf("the buffer a hand-off gave back is on the host's free list")
	}
	check := func(pw *pendingWrite, where string) error {
		switch {
		case pw == nil:
		case free[pw]:
			return fmt.Errorf("a write of page %d %s is on the host's free list", pw.page, where)
		case bufs[&pw.data[0]], r.spare != nil && &pw.data[0] == &r.spare[0]:
			return fmt.Errorf("the image of a write of page %d %s has been given out", pw.page, where)
		}
		return nil
	}
	var err error
	for i, q := range h.queues {
		for _, e := range q {
			err = cmp.Or(err, check(e.write, fmt.Sprint("queued for agent ", i)))
		}
	}
	for i := range h.links {
		for _, f := range h.links[i].flights {
			for _, e := range f.batch {
				err = cmp.Or(err, check(e.write, fmt.Sprint("in the air to agent ", i)))
			}
		}
	}
	h.records.Range(func(_ core.PageID, rec *record) bool {
		err = cmp.Or(err, check(rec.write, "pending"))
		return err == nil
	})
	return err
}

// barrier is Flush and the checks it entitles the tape to.
func (r *hostRun) barrier() error {
	h := r.h
	if err := h.Flush(); err != nil {
		return fmt.Errorf("Flush: %w", err)
	}
	for name, done := range r.bg {
		if err := <-done; err != nil {
			return fmt.Errorf("goroutine %s: %w", name, err)
		}
	}
	clear(r.bg)
	for _, tt := range r.open {
		if tt.t != nil && (!tt.t.Done() || tt.t.Err() != nil) {
			return fmt.Errorf("ticket of page %d after Flush: done %v, err %v", tt.page, tt.t.Done(), tt.t.Err())
		}
		if tt.buf != nil {
			if err := r.checkRead(tt); err != nil {
				return err
			}
		}
	}
	r.open = r.open[:0]
	h.mu.Lock()
	unlanded := slices.IndexFunc(h.links, func(l link) bool { return len(l.flights) > 0 })
	h.mu.Unlock()
	if unlanded >= 0 {
		return fmt.Errorf("link %d has flights unlanded after Flush", unlanded)
	}
	for i, l := range r.links {
		n := l.OutOfOrder()
		if r.tape.mode != CallOnly && !r.racy && n != r.ooo[i] {
			return fmt.Errorf("link %d: %d flights were waited for ahead of an older one", i, n-r.ooo[i])
		}
		r.ooo[i] = n
	}
	r.racy = false
	for _, page := range slices.Sorted(maps.Keys(r.images)) {
		if err := r.readPage(page); err != nil {
			return err
		}
		want, acked := r.images[page][len(r.images[page])-1], h.AckedReplicas(page)
		if len(acked) == 0 {
			return fmt.Errorf("page %d has no acked replica", page)
		}
		slab, off := h.locate(page)
		for _, a := range acked {
			if s := r.state[a]; s.purged || s.down && r.seqs[page] > s.since {
				return fmt.Errorf("page %d: agent %d, down since before its last write, is in its ack set %v", page, a, acked)
			}
			if resp := r.agents[a].Handle(&Request{Op: OpRead, Slab: slab, PageOff: off}); !bytes.Equal(resp.Payload, want[:]) {
				return fmt.Errorf("page %d: acked agent %d (status %d) differs from the page map", page, a, resp.Status)
			}
		}
	}
	return nil
}

// Each test below drove one interleaving by hand; it is now a tape or a slice.

// TestRangeWriteModel: range writes superseded, behind a write on the wire, out
// of step, through a flaky agent, an outage with repair and recovery, hot copies
// and migrations, over four agents, on Split links and on links moving trains;
// LEAP_SEED=<seed> plays that seed alone, on both.
func TestRangeWriteModel(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6}
	if seed, ok := leapSeed(t); ok {
		seeds = []uint64{seed}
	}
	for _, mode := range []Mode{Split, Trains} {
		for _, seed := range seeds {
			t.Run(fmt.Sprint("seed", seed, map[Mode]string{Trains: "/trains"}[mode]), func(t *testing.T) {
				tp := drawTape(seed, func(tp *hostTape) {
					tp.mode, tp.agents, tp.replicas, tp.depth, tp.slabPages, tp.compress = mode, 4, 2, 4, 8, false
					tp.mix = []string{"traffic", "supersede", "behind", "out-of-step", "flaky", "outage", "hot"}
					tp.cycles, tp.replay = 3, "^TestRangeWriteModel$"
				})
				tp.ops = append(tp.ops, expect("the tape covers ranges, supersedes, migrations and hot copies", func(r *hostRun) bool {
					st := r.h.Stats()
					return st.RangeWrites > 0 && st.Writes < int64(r.written) && st.SlabsMoved > 0 && st.HotCopies > 0
				}))
				runHostModel(t, tp)
			})
		}
	}
}

// TestReadAfterAckedWriteDoesNotJoinOlderRead: a read issued once a write is acked
// does not ride an older read held inside Call (finishWrite), on one agent.
func TestReadAfterAckedWriteDoesNotJoinOlderRead(t *testing.T) {
	for name, sync := range map[string]bool{"async": false, "sync": true} {
		t.Run(name, func(t *testing.T) {
			runHostModel(t, hostTape{mode: CallOnly, agents: 1, replicas: 1, depth: 4, slabPages: 64, seed: 5,
				replay: "^TestReadAfterAckedWriteDoesNotJoinOlderRead$",
				ops:    append([]tapeOp{at(opWriteSync, 3)}, dirtyRace(3, sync)...)})
		})
	}
}

// TestWriteBehindInFlightWriteKeepsNewestBytes: a write queues behind one on the wire.
func TestWriteBehindInFlightWriteKeepsNewestBytes(t *testing.T) { hostSlice(t, 3, "behind") }

// TestWriteTicketWaitWhileFlushReapsItsFlight: Wait sleeps while Flush reaps.
func TestWriteTicketWaitWhileFlushReapsItsFlight(t *testing.T) {
	for _, replicas := range modelReplicas {
		hostSlice(t, 2, "barrier", func(tp *hostTape) { tp.replicas = replicas })
	}
}

// TestDetachedBufferIsNotWritten: a read detached in the air is not written.
func TestDetachedBufferIsNotWritten(t *testing.T) { hostSlice(t, 3, "detach") }

// TestSubmitThenTicketWaitFromTwoGoroutines: held reads waited for from two sides.
func TestSubmitThenTicketWaitFromTwoGoroutines(t *testing.T) { hostSlice(t, 3, "ticket-waits") }

// TestFlushIsABarrierWithFlightsOutstanding: Flush waits for the reads in the air.
func TestFlushIsABarrierWithFlightsOutstanding(t *testing.T) { hostSlice(t, 3, "barrier") }

// TestRepushLeavesPageToWriteInFlight: a repush leaves a page to the write racing it.
func TestRepushLeavesPageToWriteInFlight(t *testing.T) { hostSlice(t, 3, "repush-race") }

// TestReplicateHotRacingWrite: no hot holder is certified with pre-write bytes.
func TestReplicateHotRacingWrite(t *testing.T) { hostSlice(t, 3, "hot-race") }

// TestPurgeWhileTicketsInFlight: a purge drains the tickets queued for the agent.
func TestPurgeWhileTicketsInFlight(t *testing.T) { hostSlice(t, 3, "purge") }

// TestRepairOntoHotHolder: a repair's copy onto a hot holder keeps a racing write's bytes.
func TestRepairOntoHotHolder(t *testing.T) { hostSlice(t, 3, "repair-hot") }

// TestDropHotAfterRepairOntoHolder: a repair that makes a page's hot holder a
// placement replica takes it out of the hot set, so that a DropHot of the page
// strips no placement replica from its ack set, on every link mode.
func TestDropHotAfterRepairOntoHolder(t *testing.T) {
	for _, mode := range modelModes {
		hostSlice(t, 1, "repair-hot", func(tp *hostTape) { tp.mode = mode })
	}
}

// TestRecoverDuringRepair: MarkRecovered inside a repair pass leaves it whole.
func TestRecoverDuringRepair(t *testing.T) {
	hostSlice(t, 3, "recover-race")
	runHostModel(t, recoverOntoAcked(7))
}

// recoverOntoAcked: agent a, page p's only acked holder (its other replica b
// was partitioned for the write), fails; the repair recovers it at its first
// frame, at slab 0, and later picks it to replace itself in p's slab. Copying
// b's older bytes onto a, which stays in p's ack set, would be a stale read.
func recoverOntoAcked(seed uint64) hostTape {
	tp := hostTape{seed: seed, replay: "^TestRecoverDuringRepair$", mode: Split, agents: 3, replicas: 2, depth: 4,
		slabPages: 1, pages: 8}
	ranked := (&Host{cfg: HostConfig{Seed: seed}, transports: make([]Transport, tp.agents)}).rendezvousRank
	a, b, p := ranked(0, nil)[0], -1, core.PageID(1)
	for ; ; p++ {
		if top := ranked(SlabID(p), nil)[:2]; slices.Contains(top, a) {
			b = top[0] + top[1] - a
			break
		}
	}
	for q := range core.PageID(tp.pages) {
		tp.ops = append(tp.ops, at(opWriteSync, q))
	}
	tp.ops = append(tp.ops, on(opPartition, b), at(opWriteSync, p), on(opHeal, b),
		expect("the page is degraded", func(r *hostRun) bool { return r.h.DegradedPages() == 1 }),
		on(opPartition, a), on(opMarkFailed, a),
		tapeOp{kind: opTrigger, name: "recover", link: -1, then: []tapeOp{on(opHeal, a), on(opMarkRecovered, a)}},
		repair, expect("the agent recovered inside the repair", fired("recover")),
		expect("the agent replaced itself in the page's slab", func(r *hostRun) bool {
			r.h.mu.Lock()
			defer r.h.mu.Unlock()
			return slices.Contains(r.h.placements[SlabID(p)], a)
		}), flush)
	return tp
}

// TestFlakyTransportWritesSurvive: writes survive a replica failing half of them.
func TestFlakyTransportWritesSurvive(t *testing.T) { hostSlice(t, 3, "flaky") }

// TestRepairCopiesContentExactly: an outage's repair copies slabs byte for byte.
func TestRepairCopiesContentExactly(t *testing.T) { hostSlice(t, 3, "outage") }

// TestBatchedReadsReturnSameBytes: batched reads return what single reads do.
func TestBatchedReadsReturnSameBytes(t *testing.T) {
	hostSlice(t, 3, "sweep", func(tp *hostTape) { tp.depth = 8 })
}
