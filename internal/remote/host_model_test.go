package remote

import (
	"bytes"
	"cmp"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"maps"
	"net"
	"os"
	"runtime"
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
// agents sit behind FaultTransports behind ScriptedLinks, or across loopback TCP
// (host_wire_test.go), and checked after
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
	opDetach        opKind = "detach"     // Detach read tickets and release them, then reuse their buffers
	opSubmit        opKind = "submit"     // Submit; its result is 1 when frames are left flying
	opFlush         opKind = "flush"      // Flush, and the barrier's checks
	opFlushBG       opKind = "flush-bg"   // Flush from a goroutine of its own
	opWait          opKind = "wait"       // Ticket.Wait of tickets, in order, from a second goroutine holding them
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
	opRepair        opKind = "repair"  // RepairSlabs; a named one keeps its error for the tape to judge
	opRebalance     opKind = "rebalance"
	opRetire        opKind = "retire"
	opReinstate     opKind = "reinstate"
	opAddAgent      opKind = "add-agent"     // AddAgent of a fresh agent on a link of the tape's mode
	opReplicateHot  opKind = "replicate-hot" // one extra holder for page
	opDropHot       opKind = "drop-hot"
	opExpect        opKind = "expect" // the tape's own assertion
	// The connection steps of TCP links. The first three break link's
	// connection, which nothing mends: its agent is down from then on.
	opTruncate   opKind = "truncate"    // the agent's next response is cut mid-frame, and the connection with it
	opReset      opKind = "reset"       // the agent's end is reset under whatever is outstanding
	opStall      opKind = "stall"       // no byte reaches the host from now on: the peer is silent
	opSlowReader opKind = "slow-reader" // the link's socket buffers hold lo bytes each way, or with clear enough
)

// opKinds is every kind of step; the corpus must take each.
var opKinds = []opKind{opWrite, opHandOff, opWritePage, opWriteSync, opRead, opReadAsync, opStartRead, opReadVia, opDetach,
	opSubmit, opFlush, opFlushBG, opWait, opHold, opRelease, opPump, opTrigger, opPartition, opFlaky, opHeal,
	opSlow, opMarkFailed, opMarkRecovered, opPurge, opCrash, opRestart, opRepair, opRebalance, opRetire, opReinstate, opAddAgent,
	opReplicateHot, opDropHot, opExpect, opTruncate, opReset, opStall, opSlowReader}

type tapeOp struct {
	kind   opKind
	name   string
	page   core.PageID
	lo, hi int
	link   int
	frame  uint8
	clear  bool // a slow or slow-reader step's
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

// acked: page is acked by n replicas, less those of its slab whose connections are broken.
func acked(page core.PageID, n int) func(*hostRun) bool {
	return func(r *hostRun) bool {
		r.h.mu.Lock()
		slab, _ := r.h.locate(page)
		lost := len(slices.DeleteFunc(slices.Clone(r.h.placements[slab]), func(a int) bool { return !r.state[a].lost }))
		r.h.mu.Unlock()
		return len(r.h.AckedReplicas(page)) >= n-lost
	}
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
	mode                               linkMode
	agents, replicas, depth, slabPages int
	compress                           bool
	ops                                []tapeOp
	picks                              []int
	// A draw's pages in play, and the scenarios it plays, cycles times each.
	pages, cycles int
	mix           []string
	// grown counts the agents its add-agent steps add, lost those whose
	// connections it breaks, played the scenarios it plays.
	grown, played int
	lost          []int
	// sockBuf, where set, is the slow-reader steps' socket buffer size; coda is
	// played after the drawn steps.
	sockBuf int
	coda    []tapeOp
}

// linkMode is what a tape's agents sit behind: ScriptedLinks of a Mode, or TCP.
type linkMode int

const callLinks, splitLinks, trainLinks, tcpLinks = linkMode(CallOnly), linkMode(Split), linkMode(Trains), linkMode(Trains) + 1

// pool is the agents a tape's steps play on once its add-agent steps have run,
// or, while it is drawn, as those drawn so far leave it.
func (tp *hostTape) pool() int { return tp.agents + tp.grown }

// The axes a tape's configuration is drawn from, and compression on or off.
var (
	modelModes       = []linkMode{callLinks, splitLinks, trainLinks, tcpLinks}
	modelAgents      = []int{2, 3, 4}
	modelReplicas    = []int{1, 2}
	modelQueueDepths = []int{1, 2, 4, 8}
	modelSlabs       = []int{1, 8}
)

func (tp *hostTape) axes() []string {
	return []string{"mode=" + []string{"CallOnly", "Split", "Trains", "TCP"}[tp.mode], fmt.Sprint("agents=", tp.agents),
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
func split(tp *hostTape) bool      { return tp.mode != callLinks } // responses may be held while the tape goes on
func tcp(tp *hostTape) bool        { return tp.mode == tcpLinks }
func intact(tp *hostTape) bool     { return len(tp.lost) == 0 }              // no connection broken for good
func replicated(tp *hostTape) bool { return tp.replicas == 2 && intact(tp) } // a replica may fail
func spare(tp *hostTape) bool      { return tp.pool() > tp.replicas && intact(tp) }
func outage(tp *hostTape) bool     { return replicated(tp) && spare(tp) }

// breakable: a connection may break for good, each page keeping a replica
// that the repair after it can copy from.
func breakable(tp *hostTape) bool {
	return tcp(tp) && tp.replicas == 2 && (intact(tp) || tp.pool()-len(tp.lost) > tp.replicas)
}

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
		}), expect("its reads and flights, released and landed, are recycled", func(r *hostRun) bool {
			r.h.mu.Lock()
			defer r.h.mu.Unlock()
			return len(r.h.readFree) > 0 && len(r.h.flightFree) > 0
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
		for _, i := range b.rng.Perm(b.tp.pool()) {
			b.add(on(opRelease, i), on(opReadVia, i))
			b.writes(2)
			b.add(at(opRead, p))
		}
		b.add(b.release(), flush)
	}},
	// A read detached and released in the air while a second goroutine waits
	// for it: the waiter's hold keeps the read, which completes, and its
	// coalesced sibling still gets the page.
	"detach": {split, func(b *tapeBuilder) {
		p, gone, kept := b.page(), b.name(), b.name()
		b.add(b.hold(), named(gone, at(opReadAsync, p)), named(kept, at(opReadAsync, p)), submit,
			named(b.name(), wait(gone)), tapeOp{kind: opDetach, refs: []string{gone}}, b.release(),
			named(b.name(), wait(kept)), flush)
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
	"dirty-race": {func(tp *hostTape) bool { return tp.mode == callLinks }, func(b *tapeBuilder) {
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
	"repush-race": {func(tp *hostTape) bool { return tp.pool() == 2 && replicated(tp) }, func(b *tapeBuilder) {
		p := b.page()
		b.add(repushRace(b.agent(), p, (p+1)%core.PageID(b.tp.pages), split(b.tp))...)
	}},
	// A repair copies onto a page's hot holder, and a write of the page lands
	// inside the copy's source read.
	"repair-hot": {func(tp *hostTape) bool { return tp.pool() == 3 && replicated(tp) }, func(b *tapeBuilder) {
		b.add(repairHot(b.tp, b.name(), b.rng.Intn(b.tp.pages/b.tp.slabPages), b.rng.Intn(2))...)
	}},
	// A repair that meets a slab it cannot restore restores the rest.
	"stranded": {func(tp *hostTape) bool { return tp.pool() == 4 && replicated(tp) }, func(b *tapeBuilder) {
		b.add(strandedRepair(b.tp, b.name())...)
	}},
	// An agent failed and its slabs moved off by a rebalance, with no repair
	// between, then healed, recovered and rebalanced back.
	"fail-rebalance": {outage, func(b *tapeBuilder) {
		v := b.agent()
		b.add(on(opPartition, v))
		b.traffic(4)
		b.add(flush, on(opMarkFailed, v), rebal, flush)
		b.traffic(4)
		b.add(flush, on(opHeal, v), on(opMarkRecovered, v), rebal, flush)
	}},
	// An agent recovers inside the repair that replaces it. A slab a page, and
	// the slabs rebalanced first (the agent may have joined with none), so that
	// the agent holds slabs, and the repair has work.
	"recover-race": {func(tp *hostTape) bool { return outage(tp) && tp.slabPages == 1 }, func(b *tapeBuilder) {
		v, trig, again := b.agent(), b.name(), b.name()
		b.add(rebal, on(opPartition, v), on(opMarkFailed, v),
			tapeOp{kind: opTrigger, name: trig, link: -1, then: []tapeOp{on(opHeal, v), on(opMarkRecovered, v)}},
			repair, expect("the agent recovered inside the repair", func(r *hostRun) bool {
				return r.results[trig] == 1 && len(r.h.FailedAgents()) == 0
			}),
			on(opHeal, v), on(opMarkRecovered, v), flush, rebal, named(again, rebal),
			expect("Rebalance converged", func(r *hostRun) bool { return r.results[again] == 0 }), flush)
	}},
	// An agent joins while goroutines wait for held responses — a Flush and
	// ticket waits, or on a link that finishes what it starts a StartRead
	// inside Call — and sometimes a rebalance moves its share onto it.
	"add-agent": {always, func(b *tapeBuilder) {
		b.add(b.hold())
		if split(b.tp) {
			reads := b.reads(1 + b.rng.Intn(4))
			b.writes(1 + b.rng.Intn(3))
			b.add(submit, named(b.name(), tapeOp{kind: opFlushBG}), named(b.name(), wait(reads...)))
		} else {
			b.add(named(b.name(), at(opStartRead, b.page())))
		}
		b.tp.grown++
		b.add(tapeOp{kind: opAddAgent})
		b.writes(2)
		b.add(b.release(), flush)
		if b.rng.Intn(2) == 0 {
			b.add(rebal, flush)
		}
		b.traffic(6)
		b.add(flush)
	}},
	// An agent's connection cut inside a response, a demand read's or a burst's.
	"truncate": {breakable, func(b *tapeBuilder) {
		v := b.agent()
		b.add(on(opTruncate, v), on(opReadVia, v))
		b.burst()
		b.broken(v)
	}},
	// An agent's connection reset under frames held in the air, and a burst
	// started on it before anything has read the reset: a train's write fails.
	"reset": {breakable, func(b *tapeBuilder) {
		v := b.agent()
		b.outstanding()
		b.add(on(opReset, v), b.release())
		b.burst()
		b.broken(v)
	}},
	// An agent gone silent under frames held in the air.
	"stall": {breakable, func(b *tapeBuilder) {
		v := b.agent()
		b.outstanding()
		b.add(on(opStall, v), b.release(), flush, expect("one deadline, then the silent peer fails fast, with its timeout",
			func(r *hostRun) bool {
				var nerr net.Error
				_, err := r.conn(v).tr.Call(&Request{Op: OpPing}) // if nothing waited on the link, this does
				return errors.As(err, &nerr) && nerr.Timeout() && time.Since(r.conn(v).stalled) < 4*stallTimeout
			}))
		b.broken(v)
	}},
	// A burst through small socket buffers: responses nobody reaps yet fill the
	// way back, the agent stops reading, and the host's request writes stall. On
	// a tape whose sockets were dialed small (sockBuf) the burst plays alone.
	"slow-reader": {tcp, func(b *tapeBuilder) {
		v, narrow := b.agent(), b.tp.sockBuf == 0
		if narrow {
			b.add(tapeOp{kind: opSlowReader, link: v, lo: []int{4 << 10, 16 << 10}[b.rng.Intn(2)]})
		}
		b.burst()
		if narrow {
			b.add(tapeOp{kind: opSlowReader, link: v, clear: true})
		}
	}},
}

// outstanding holds the links and leaves a few reads and writes in the air.
func (b *tapeBuilder) outstanding() {
	b.add(b.hold())
	b.reads(1 + b.rng.Intn(3))
	b.writes(1 + b.rng.Intn(2))
	b.add(submit)
}

// burst reads every page and then writes each whole, one doorbell for all.
func (b *tapeBuilder) burst() {
	for p := range b.tp.pages {
		b.add(at(opReadAsync, core.PageID(p)))
	}
	for p := range b.tp.pages {
		b.add(at(opWritePage, core.PageID(p)))
	}
	b.add(submit, flush)
}

// broken: agent v's connection is broken for good. The tape checks that it
// stays so, tells the host, and repairs around it where the agents left can
// hold every slab.
func (b *tapeBuilder) broken(v int) {
	b.tp.lost = append(b.tp.lost, v)
	b.add(expect("the broken connection failed what it had in the air, and fails a later frame, with the error that broke it",
		func(r *hostRun) bool {
			c := r.conn(v)
			_, err := c.tr.Call(&Request{Op: OpPing})
			c.tr.mu.Lock()
			defer c.tr.mu.Unlock()
			return err != nil && err == c.tr.err &&
				!slices.ContainsFunc(c.outstanding, func(p *tcpPending) bool { return !p.done || p.err != err })
		}), on(opMarkFailed, v))
	if b.tp.pool()-len(b.tp.lost) >= b.tp.replicas {
		b.add(repair)
	}
	b.traffic(4)
	b.add(flush)
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

// rankOf returns the rendezvous ranking of a host of the given seed and agents,
// none failed or retired.
func rankOf(seed uint64, agents int) func(SlabID, []int) []int {
	h := &Host{cfg: HostConfig{Seed: seed}}
	for range agents {
		h.addLink(nil)
	}
	return h.rendezvousRank
}

// repairHot: on three agents, the k-th of slab's two replicas fails, and the
// repair puts the third agent, the hot holder of page, in its place. page is
// the first of the lowest slab the failed agent holds, so the repair's first
// source read is page's, and a write of page lands inside it: the write reaches
// the holder before the copy's older bytes, which must not overwrite it. The
// holder is a placement replica then, and no longer a hot one: DropHot leaves
// the page's ack set and degraded flag alone.
func repairHot(tp *hostTape, trig string, slab, k int) []tapeOp {
	ranked := rankOf(tp.seed, tp.pool())
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

// strandedRepair: on four agents, x, slab 0's first replica, is partitioned and
// failed, and y, its second, partitioned but not marked failed, so that slab
// 0's only survivor cannot be read: the repair meets an error there, before any
// other slab. Page d, the first of the first slab neither holds, was rewritten
// while that slab's second replica was partitioned, so it is degraded with its
// acked holder live. The repair must still restore every slab it can and
// re-push d.
func strandedRepair(tp *hostTape, name string) []tapeOp {
	ranked := rankOf(tp.seed, tp.pool())
	x, y, d := ranked(0, nil)[0], ranked(0, nil)[1], core.PageID(-1)
	ops := []tapeOp{rebal}
	for s := range tp.pages / tp.slabPages {
		if top := ranked(SlabID(s), nil)[:2]; !slices.Contains(top, x) && !slices.Contains(top, y) {
			d = core.PageID(s * tp.slabPages)
			ops = append(ops, on(opPartition, top[1]), at(opWriteSync, d), on(opHeal, top[1]))
			break
		}
	}
	var before []string
	ops = append(ops, on(opPartition, x), on(opMarkFailed, x), on(opPartition, y),
		expect("", func(r *hostRun) bool { before = r.strays(); return true }), named(name, repair),
		expect("the repair returned an error", func(r *hostRun) bool { return r.errs[name] != nil }),
		expect("the failed moves left no live agent a slab or an ack outside the placements", func(r *hostRun) bool {
			return !slices.ContainsFunc(r.strays(), func(s string) bool { return !slices.Contains(before, s) })
		}),
		expect("every slab with a reachable survivor and a reachable first choice is back at Replicas", func(r *hostRun) bool {
			h := r.h
			h.mu.Lock()
			defer h.mu.Unlock()
			down := func(a int) bool { return r.state[a].down }
			for slab, replicas := range h.placements {
				live := h.live(replicas)
				if len(live) == 0 || len(live) >= h.cfg.Replicas || slices.ContainsFunc(live, down) {
					continue
				}
				if first := h.rendezvousRank(slab, live); len(first) > 0 && !down(first[0]) {
					return false
				}
			}
			return true
		}))
	if d >= 0 {
		ops = append(ops, expect("the degraded page was re-pushed", acked(d, 2)))
	}
	return append(ops, on(opHeal, y), on(opHeal, x), on(opMarkRecovered, x), repair, rebal, flush)
}

// strays lists what the live agents — neither failed nor down — hold outside
// the placements: a slab one maps that no placement names for it, a slab one
// lacks that a placement does, a page one acks that neither its slab's
// placement nor its hot set names it for.
func (r *hostRun) strays() []string {
	h := r.h
	h.mu.Lock()
	defer h.mu.Unlock()
	live := func(a int) bool { return !h.links[a].failed && !r.state[a].down }
	var out []string
	for i, ag := range r.agents {
		if !live(i) {
			continue
		}
		ag.mu.Lock()
		mapped := maps.Clone(ag.slabs)
		ag.mu.Unlock()
		for slab := range mapped {
			if !slices.Contains(h.placements[slab], i) {
				out = append(out, fmt.Sprintf("agent %d maps slab %d", i, slab))
			}
		}
		for slab, replicas := range h.placements {
			if _, ok := mapped[slab]; !ok && slices.Contains(replicas, i) {
				out = append(out, fmt.Sprintf("agent %d lacks slab %d", i, slab))
			}
		}
	}
	for page := range core.PageID(r.tape.pages) {
		slab, _ := h.locate(page)
		for _, a := range h.rec(page).acked() {
			if live(a) && !slices.Contains(h.placements[slab], a) && !slices.Contains(h.hot[page], a) {
				out = append(out, fmt.Sprintf("agent %d acks page %d", a, page))
			}
		}
	}
	return out
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
func (b *tapeBuilder) name() string      { b.names++; return fmt.Sprint("s", b.names) }
func (b *tapeBuilder) hold() tapeOp      { b.held = true; return on(opHold, -1) }
func (b *tapeBuilder) release() tapeOp   { b.held = false; return on(opRelease, -1) }

// agent draws an agent whose connection is whole.
func (b *tapeBuilder) agent() int {
	for {
		if a := b.rng.Intn(b.tp.pool()); !slices.Contains(b.tp.lost, a) {
			return a
		}
	}
}

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
	for i := range b.tp.pool() {
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
// play, then plays the scenarios in a drawn order, each that the configuration
// admits as the steps before it leave the pool.
func drawTape(seed uint64, pins ...func(*hostTape)) hostTape {
	rng := sim.NewRNG(seed)
	tp := hostTape{
		seed:      seed,
		replay:    "^TestHostModel$",
		mode:      modelModes[seed%4],
		agents:    modelAgents[seed/4%3],
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
	mix := slices.Sorted(slices.Values(tp.mix))
	for range tp.cycles {
		for _, i := range rng.Perm(len(mix)) {
			if s := scenarios[mix[i]]; s.ok(&tp) {
				tp.played++
				s.gen(b)
			}
		}
	}
	b.add(tp.coda...)
	return tp
}

// hostCorpus is TestHostModel's fixed set of tape seeds: 48 in a row.
func hostCorpus() []uint64 {
	var seeds []uint64
	for i := range uint64(48) {
		seeds = append(seeds, 0x4057<<16|i)
	}
	return seeds
}

// hostRegressions are TestHostModel's literal tapes, each named by its seed: a
// seed's drawn tape that caught a defect, cut down to the steps it needs and
// frozen, so that no new scenario or draw can re-draw it into one that does not.
func hostRegressions() []hostTape {
	return []hostTape{hotAckCounted(), staleCopyOntoAcked(), repairBesideHandOff(), hotBesidePendingWrite()}
}

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
	tp := hostTape{seed: 0x405702cc, replay: "^TestHostModel$/^0x405702cc$", mode: callLinks, agents: 3, replicas: 2,
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
	tp := hostTape{seed: 0x4057055d, replay: "^TestHostModel$/^0x4057055d$", mode: callLinks, agents: 3,
		replicas: 2, depth: 1, slabPages: 1, pages: 8}
	tp.ops = []tapeOp{{kind: opWrite, page: 7, lo: 1773, hi: 1802}, at(opWritePage, 8), flush, at(opReplicateHot, 7),
		on(opFlaky, 0), {kind: opWrite, page: 7, lo: 1043, hi: 1227}, flush, missedByPlacement(7), on(opHeal, 0),
		on(opMarkFailed, 2), repair}
	return tp
}

// repairBesideHandOff (tape 0x4056ff34, frozen): agent 0 crashes and restarts
// empty, so a rewrite of page 10 is acked by agent 1 alone and the page is
// degraded; a hand-off of the page is queued, and a repair puts agent 0 back
// in the slab's placement. The page stays degraded until the queued write has
// landed on both (repushDegraded leaves a page with a write pending to it).
// Where checkRepaired took "no write pending" to mean "no write ticket
// pending", the hand-off, which has no ticket, failed the repair's check.
func repairBesideHandOff() hostTape {
	tp := hostTape{seed: 0x4056ff34, replay: "^TestHostModel$/^0x4056ff34$", mode: splitLinks, agents: 2, replicas: 2,
		depth: 8, slabPages: 8, pages: 24}
	tp.ops = []tapeOp{at(opWritePage, 10), flush, on(opCrash, 0), on(opRestart, 0), at(opWritePage, 10), flush,
		{kind: opHandOff, page: 10, lo: 687, hi: 798}, repair,
		expect("the page waits for its queued write to be re-acked", func(r *hostRun) bool { return r.h.DegradedPages() == 1 }),
		flush, expect("the write's landing on both replicas clears it", func(r *hostRun) bool { return r.h.DegradedPages() == 0 })}
	return tp
}

// hotBesidePendingWrite (found by tape 0x40570003 on TCP links, where the write
// a hot-race starts inside the copy's source read was still in the air at the
// install; cut down to a queued write, and frozen): ReplicateHot certified its
// copy with a write of the page pending whose replica set was fixed before the
// target joined, and that write's landing left the new hot holder out of the
// ack set, with older bytes. The pending write now goes to the new holder too.
func hotBesidePendingWrite() hostTape {
	tp := hostTape{seed: 0x4057f003, replay: "^TestHostModel$/^0x4057f003$", mode: callLinks, agents: 3, replicas: 2,
		depth: 1, slabPages: 1, pages: 8}
	tp.ops = []tapeOp{at(opWriteSync, 0), at(opWritePage, 0), named("hot", at(opReplicateHot, 0)), flush,
		expect("the hot holder, added beside the write, is in its ack set", func(r *hostRun) bool {
			holders := r.h.HotHolders(0)
			return r.results["hot"] == 1 && len(holders) == 1 && slices.Contains(r.h.AckedReplicas(0), holders[0])
		})}
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
// test's own whose draw, pins applied, plays it; LEAP_SEED=<seed> go test -run
// '^<test>$' ./internal/remote replays one.
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
		if tp := drawTape(seed, pins...); tp.played > 0 {
			runHostModel(t, tp)
			n--
		}
	}
}

// hostRun is a tape being played: the host, its agents and links, the page
// map, and what the tape has made.
type hostRun struct {
	t      testing.TB
	tape   *hostTape
	h      *Host
	agents []*Agent
	faults []*FaultTransport
	links  []tapeLink
	state  []agentState
	trig   atomic.Pointer[tapeOp]
	// trigger is the trigger armed for the step being played, and fired takes
	// word from its steps, played inside the frame it fired at, that they are done.
	trigger *tapeOp
	fired   chan struct{}
	picked  atomic.Int64
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
	errs    map[string]error      // what named repairs returned
	trigErr error
	ooo     []int  // each link's OutOfOrder at the last barrier
	spare   []byte // the buffer the last hand-off gave back, scribbled over
	// racy: since the last barrier a frame was launched while a goroutine of
	// the tape's could start one, so that a link's order is their race.
	racy bool
}

// agentState is what the tape did to an agent; since: writes issued when it
// went down; lost: its connection is broken for good.
type agentState struct {
	down, purged, failed, flaky, retired, lost bool
	since                                      int
}

// opTimeout is the watchdog: a step still running after it fails the tape, or
// after four times it on a tape dialed with small socket buffers.
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
	r := &hostRun{
		t:       t,
		tape:    tape,
		fired:   make(chan struct{}, 1),
		images:  map[core.PageID][]*[PageSize]byte{},
		seqs:    map[core.PageID]int{},
		tickets: map[string]*tapeTicket{},
		bg:      map[string]chan error{},
		results: map[string]int{},
		errs:    map[string]error{},
	}
	trs := make([]Transport, tape.agents)
	for i := range trs {
		var err error
		if trs[i], err = r.join(); err != nil {
			t.Fatal(err)
		}
	}
	r.h = newHost(t, HostConfig{SlabPages: tape.slabPages, Replicas: tape.replicas, QueueDepth: tape.depth,
		Seed: tape.seed, Compress: tape.compress}, trs)
	t.Cleanup(func() { r.do(&tapeOp{kind: opRelease, link: -1}) })
	return r
}

// join makes the next agent, behind a fault transport and a link of the
// tape's mode, and returns the transport the host is to reach it by. On TCP the
// fault transport only decides which frames fail: the agent is over the wire.
func (r *hostRun) join() (Transport, error) {
	i := len(r.agents)
	a := NewAgent(r.tape.slabPages, 0)
	r.agents, r.state, r.ooo = append(r.agents, a), append(r.state, agentState{}), append(r.ooo, 0)
	rng := sim.NewRNG(r.tape.seed*31 + uint64(i))
	if r.tape.mode == tcpLinks {
		ft := NewFaultTransport(i, NewInProc(NewAgent(1, 0)), rng)
		c, err := r.dial(i, a, ft)
		if err != nil {
			return nil, err
		}
		r.faults, r.links = append(r.faults, ft), append(r.links, c)
		return c.tr, nil
	}
	ft, l := NewFaultTransport(i, NewInProc(a), rng), &scriptLink{}
	l.ScriptedLink = NewScriptedLink(ft, Mode(r.tape.mode), nil, r.script(l, i))
	r.faults, r.links = append(r.faults, ft), append(r.links, l)
	return l.Transport(), nil
}

// conn is the host's end of agent i's TCP link.
func (r *hostRun) conn(i int) *tapeConn { return r.links[i].(*tapeConn) }

// script is link l's, agent i's: it holds what the tape holds there — on a
// CallOnly link read frames alone, for a held write would hold the tape inside
// Call — and fires an armed trigger inside the frame it fires at.
func (r *hostRun) script(l *scriptLink, i int) func(*Request) Verdict {
	return func(req *Request) (v Verdict) {
		v.Hold = l.holds() && (r.tape.mode != callLinks || req.Op == OpRead || req.Op == OpReadBatch)
		if op := r.fire(i, req.Op, false); op != nil {
			v.Then = func(*Response, error) { r.inside(op) }
		}
		return v
	}
}

// fire takes the armed trigger if it fires at link i's frame of op. On TCP it
// fires on the agent's side (async), where its steps run on a goroutine of
// their own while the host goes on; the step that armed it waits for them.
func (r *hostRun) fire(i int, frame uint8, async bool) *tapeOp {
	op := r.trig.Load()
	if op == nil || op.link >= 0 && op.link != i || op.frame != 0 && op.frame != frame || !r.trig.CompareAndSwap(op, nil) {
		return nil
	}
	if async {
		go r.inside(op)
	}
	return op
}

// inside plays a fired trigger's steps.
func (r *hostRun) inside(op *tapeOp) {
	for k := range op.then {
		if err := r.step(&op.then[k]); err != nil && r.trigErr == nil {
			r.trigErr = fmt.Errorf("%s, inside the frame: %w", op.then[k], err)
		}
	}
	r.fired <- struct{}{}
}

// settle ends the step the trigger was armed for: if the trigger fired it
// waits for its steps, and marks it fired.
func (r *hostRun) settle() {
	if op := r.trigger; op != nil {
		if r.trigger = nil; r.trig.Swap(nil) == nil {
			<-r.fired
			r.results[op.name] = 1
		}
	}
}

// runHostModel plays tape, each step under the watchdog and followed by the
// standing checks, and closes it with every link let go and a barrier.
func runHostModel(t *testing.T, tape hostTape, more ...tapeOp) {
	tape.ops = append(tape.ops, more...)
	r := newHostRun(t, &tape)
	ops, watchdog := append(tape.ops, on(opRelease, -1), flush), opTimeout
	if tape.sockBuf > 0 {
		watchdog *= 4 // frames trickle through small socket buffers
	}
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
		case <-time.After(watchdog):
			err = fmt.Errorf("still blocked after %v", watchdog)
		}
		if err != nil {
			replay := fmt.Sprintf("LEAP_SEED=%#x go test -run '%s'", tape.seed, tape.replay)
			if strings.Contains(tape.replay, "/^") { // a literal tape of a subtest's
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
			n += l.parked()
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
	return slices.ContainsFunc(r.links, tapeLink.holds)
}

// do plays one step of the tape.
func (r *hostRun) do(op *tapeOp) error {
	err := r.step(op)
	if op.kind != opTrigger {
		r.settle()
	}
	return err
}

// step plays one step: the tape's, or a trigger's inside a frame.
func (r *hostRun) step(op *tapeOp) error {
	h := r.h
	s := &r.state[max(op.link, 0)] // the agent of an agent's step
	if s.lost && (op.kind == opHeal || op.kind == opRestart || op.kind == opMarkRecovered) {
		return fmt.Errorf("agent %d's connection is broken: nothing mends it", op.link)
	}
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
		err = r.spawn(op.name, r.holding(), func() error {
			t := h.StartRead(op.page, tt.buf)
			defer t.Release()
			return t.Wait()
		})
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
			tt.t.Release()
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
			t := r.tickets[ref].t
			t.Hold() // the tape may release it while this goroutine waits
			tks = append(tks, t)
		}
		err = r.spawn(op.name, false, func() (err error) {
			for _, t := range tks {
				err = cmp.Or(err, t.Wait())
				t.Release()
			}
			return err
		})
	case opHold, opRelease, opPump:
		for i, l := range r.links {
			if op.link < 0 || op.link == i {
				l.drive(op.kind, r.pick)
			}
		}
	case opTrigger:
		if len(r.bg) > 0 {
			return fmt.Errorf("a trigger needs the tape to itself: %d goroutines of its own are running", len(r.bg))
		}
		r.trig.Store(op)
		r.trigger = op
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
	case opAddAgent:
		var tr Transport
		if tr, err = r.join(); err == nil {
			if i := h.AddAgent(tr); i != len(r.agents)-1 {
				err = fmt.Errorf("AddAgent gave agent %d index %d", len(r.agents)-1, i)
			}
		}
	case opRepair:
		var n int
		n, err = h.RepairSlabs()
		if r.settle(); op.name != "" {
			r.errs[op.name], err = err, nil
		} else if err == nil {
			err = r.checkRepaired()
		}
		r.results[op.name] = n
	case opRebalance:
		r.results[op.name], err = h.Rebalance()
	case opReplicateHot:
		var n int
		n, err = h.ReplicateHot(op.page, 1)
		r.settle()
		r.results[op.name] = n
	case opDropHot:
		h.DropHot(op.page)
	case opExpect:
		if !op.check(r) {
			err = fmt.Errorf("expected: %s", op.name)
		}
	case opTruncate, opReset, opStall:
		c := r.conn(op.link)
		switch op.kind {
		case opTruncate:
			c.agent.cut.Store(true)
		case opReset: // unread bytes dropped
			c.agent.Conn.(*net.TCPConn).SetLinger(0)
			c.agent.Conn.Close()
		case opStall:
			c.set(func() { c.stalled = time.Now() })
		}
		if !s.down {
			s.down, s.since = true, r.written
		}
		s.lost = true
	case opSlowReader:
		c, narrow := r.conn(op.link), op.lo
		if op.clear {
			narrow = 0
		}
		c.set(func() { c.narrow, c.inReq, c.inResp = narrow, 0, 0 })
	}
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
// enough of them left and no write pending — ticketed or handed off, queued or
// in the air on any link — no slab lacks a replica and no page an ack.
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
	r.h.mu.Lock()
	pending := slices.ContainsFunc(r.h.links, func(l *link) bool {
		return l.writes > 0 || slices.ContainsFunc(l.queue, func(e queueEntry) bool { return e.write != nil })
	})
	r.h.mu.Unlock()
	if live < r.tape.replicas || pending {
		return nil
	}
	if n, m := r.h.UnderReplicated(), r.h.DegradedPages(); n != 0 || m != 0 {
		return fmt.Errorf("after a repair with every agent healthy: %d slabs under-replicated, %d pages degraded", n, m)
	}
	return nil
}

// startedWrites counts, each once, the writes the host has started (begin)
// and not finished (finishWrite): those in a flight, those still queued for
// another replica, and any a page's record holds. Callers hold h.mu.
func startedWrites(h *Host) int {
	writes := map[*pendingWrite]bool{}
	held := func(pw *pendingWrite) {
		if pw != nil && pw.started {
			writes[pw] = true
		}
	}
	for _, l := range h.links {
		for _, f := range l.flights {
			for _, e := range f.batch {
				held(e.write)
			}
		}
		for _, e := range l.queue {
			held(e.write)
		}
	}
	for _, r := range h.records.Range {
		held(r.write)
	}
	return len(writes)
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
	for i, l := range h.links {
		if l.writes > unackedFrames {
			return fmt.Errorf("link %d carries %d write frames, over its window of %d", i, l.writes, unackedFrames)
		}
	}
	if n := startedWrites(h); n > len(h.links)*unackedFrames*h.cfg.QueueDepth {
		return fmt.Errorf("%d pages unacked, over %d frames of %d pages a link", n, unackedFrames, h.cfg.QueueDepth)
	}
	return r.freeListsUnreachable()
}

// freeListsUnreachable: nothing the host can still reach — a queue, a flight in
// the air, a page's record, a ticket of the tape's it has not released — holds
// a pendingWrite, a pendingRead, a flight, an image or an encoded image on the
// host's free lists, nor does the buffer the tape was handed back. Callers hold
// h.mu.
func (r *hostRun) freeListsUnreachable() error {
	h := r.h
	bufs := map[*byte]bool{}
	for _, b := range slices.Concat(h.bufFree, h.encFree) {
		bufs[&b[:1][0]] = true
	}
	if r.spare != nil && bufs[&r.spare[0]] {
		return fmt.Errorf("the buffer a hand-off gave back is on the host's free list")
	}
	flown := func(f *flight, where string) error {
		if slices.Contains(h.flightFree, f) {
			return fmt.Errorf("a flight to agent %d %s is on the host's free list", f.idx, where)
		}
		return nil
	}
	check := func(e queueEntry, where string) error {
		if pr := e.read; pr != nil {
			if slices.Contains(h.readFree, pr) {
				return fmt.Errorf("a read of page %d %s is on the host's free list", pr.page, where)
			}
			if pr.flight != nil {
				return flown(pr.flight, fmt.Sprint("carrying a read of page ", pr.page, " ", where))
			}
			return nil
		}
		pw := e.write
		switch {
		case pw == nil:
		case slices.Contains(h.writeFree, pw):
			return fmt.Errorf("a write of page %d %s is on the host's free list", pw.page, where)
		case bufs[&pw.data[0]], r.spare != nil && &pw.data[0] == &r.spare[0]:
			return fmt.Errorf("the image of a write of page %d %s has been given out", pw.page, where)
		case pw.enc != nil && bufs[&pw.enc[:1][0]]:
			return fmt.Errorf("the encoded image of a write of page %d %s has been given out", pw.page, where)
		default:
			for _, f := range pw.flights {
				if err := flown(f, fmt.Sprint("carrying a write of page ", pw.page, " ", where)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	var err error
	for i, l := range h.links {
		for _, e := range l.queue {
			err = cmp.Or(err, check(e, fmt.Sprint("queued for agent ", i)))
		}
		for _, f := range l.flights {
			err = cmp.Or(err, flown(f, "in the air"))
			for _, e := range f.batch {
				err = cmp.Or(err, check(e, fmt.Sprint("in the air to agent ", i)))
			}
		}
	}
	h.records.Range(func(_ core.PageID, rec *record) bool {
		err = cmp.Or(err, check(queueEntry{write: rec.write}, "pending"), check(queueEntry{read: rec.read}, "pending"))
		return err == nil
	})
	for _, tt := range r.open {
		if tt.t != nil && tt.t.read != nil {
			err = cmp.Or(err, check(queueEntry{read: tt.t.read}, "held by an unreleased ticket"))
		}
	}
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
		if tt.t != nil {
			tt.t.Release()
		}
	}
	r.open = r.open[:0]
	h.mu.Lock()
	unlanded := slices.IndexFunc(h.links, func(l *link) bool { return len(l.flights) > 0 })
	h.mu.Unlock()
	if unlanded >= 0 {
		return fmt.Errorf("link %d has flights unlanded after Flush", unlanded)
	}
	for i, l := range r.links {
		n := l.OutOfOrder()
		if r.tape.mode != callLinks && !r.racy && n != r.ooo[i] {
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
	for _, mode := range []linkMode{splitLinks, trainLinks} {
		for _, seed := range seeds {
			t.Run(fmt.Sprint("seed", seed, map[linkMode]string{trainLinks: "/trains"}[mode]), func(t *testing.T) {
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
			runHostModel(t, hostTape{mode: callLinks, agents: 1, replicas: 1, depth: 4, slabPages: 64, seed: 5,
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
	tp := hostTape{seed: seed, replay: "^TestRecoverDuringRepair$", mode: splitLinks, agents: 3, replicas: 2, depth: 4,
		slabPages: 1, pages: 8}
	ranked := rankOf(seed, tp.agents)
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

// TestRepairFinishesItsRound: a repair that meets a slab whose only survivor
// cannot be read restores every other slab it can and re-pushes degraded
// pages; a move cut short takes back what it put on its joiner.
func TestRepairFinishesItsRound(t *testing.T) {
	hostSlice(t, 3, "stranded")
	runHostModel(t, copyCut(9))
}

// copyCut: slab 0's first replica a fails, and the repair copies the slab from
// b onto c; b is partitioned once c has taken the first page, so the copy of
// the second fails. c took the first page from b's acknowledged copy, and the
// copy put it in the page's ack set: the failed move must take it out again,
// and free the slab on c, which no placement names.
func copyCut(seed uint64) hostTape {
	tp := hostTape{seed: seed, replay: "^TestRepairFinishesItsRound$", mode: callLinks, agents: 3, replicas: 2, depth: 4,
		slabPages: 8, pages: 16}
	ranked := rankOf(seed, tp.agents)(0, nil)
	a, b, c := ranked[0], ranked[1], ranked[2]
	for q := range core.PageID(tp.pages) {
		tp.ops = append(tp.ops, at(opWriteSync, q))
	}
	tp.ops = append(tp.ops, on(opMarkFailed, a),
		tapeOp{kind: opTrigger, name: "cut", link: c, frame: OpWrite, then: []tapeOp{on(opPartition, b)}},
		named("repair", repair), expect("the copy onto c was cut after its first page", fired("cut")),
		expect("the repair returned an error", func(r *hostRun) bool { return r.errs["repair"] != nil }),
		expect("no live agent holds a slab or an ack outside the placements", func(r *hostRun) bool {
			return len(r.strays()) == 0
		}), on(opHeal, b), on(opMarkRecovered, a), repair, rebal, flush)
	return tp
}

// TestRebalanceOffFailedAgent: a rebalance moves a failed agent's slabs off it
// with no repair first, and back once it has recovered.
func TestRebalanceOffFailedAgent(t *testing.T) { hostSlice(t, 3, "fail-rebalance") }

// TestFlakyTransportWritesSurvive: writes survive a replica failing half of them.
func TestFlakyTransportWritesSurvive(t *testing.T) { hostSlice(t, 3, "flaky") }

// TestRepairCopiesContentExactly: an outage's repair copies slabs byte for byte.
func TestRepairCopiesContentExactly(t *testing.T) { hostSlice(t, 3, "outage") }

// TestBatchedReadsReturnSameBytes: batched reads return what single reads do.
func TestBatchedReadsReturnSameBytes(t *testing.T) {
	hostSlice(t, 3, "sweep", func(tp *hostTape) { tp.depth = 8 })
}

// The tests below drove TCP links and the pipeline by hand; each is now a slice
// of the model or a literal tape.

// onTCP pins a slice to TCP links.
func onTCP(tp *hostTape) { tp.mode = tcpLinks }

// coda pins ops to the end of a slice's tapes.
func coda(ops ...tapeOp) func(*hostTape) { return func(tp *hostTape) { tp.coda = ops } }

// buffered pins the slow-reader steps' socket buffers, the queue depth and the
// pages, with frames uncompressed.
func buffered(buf, depth, pages int) func(*hostTape) {
	return func(tp *hostTape) { tp.sockBuf, tp.depth, tp.pages, tp.compress = buf, depth, pages, false }
}

// stalls counts the request writes that timed out on the tape's TCP links: the
// writeStall rule at work.
func (r *hostRun) stalls() (n int64) {
	for i := range r.links {
		n += r.conn(i).stalls.Load()
	}
	return n
}

// TestTCPTransportEndToEnd: traffic through a host over loopback TCP.
func TestTCPTransportEndToEnd(t *testing.T) { hostSlice(t, 1, "traffic", onTCP) }

// TestTCPPipelinedCallsMatchFIFO: held reads on one connection each, waited
// for from two goroutines, up and down, each returning its own page.
func TestTCPPipelinedCallsMatchFIFO(t *testing.T) { hostSlice(t, 3, "ticket-waits", onTCP) }

// TestTCPPoisonFailsOutstandingAndLater: a response cut mid-frame fails every
// frame outstanding behind it, over to the other replica, and every later one.
func TestTCPPoisonFailsOutstandingAndLater(t *testing.T) { hostSlice(t, 3, "truncate", onTCP) }

// TestTCPSilentPeerFailsOver: a silent peer's read deadline poisons its
// connection, and the reads held on it fail over.
func TestTCPSilentPeerFailsOver(t *testing.T) { hostSlice(t, 2, "stall", onTCP) }

// TestTCPNoDeadlockWithSmallSocketBuffers: bursts of frames several times the
// socket buffers pass by the writeStall rule; at the read pipeline's bound the
// rule has next to nothing to do.
func TestTCPNoDeadlockWithSmallSocketBuffers(t *testing.T) {
	t.Run("buf32K_depth256", func(t *testing.T) {
		hostSlice(t, 1, "slow-reader", onTCP, buffered(32<<10, MaxBatchOps, 64))
	})
	t.Run("buf4K_depth16", func(t *testing.T) { hostSlice(t, 1, "slow-reader", onTCP, buffered(4<<10, 16, 16)) })
	t.Run("reads_at_the_bound", func(t *testing.T) {
		tp := hostTape{seed: 1, replay: "^TestTCPNoDeadlockWithSmallSocketBuffers$/^reads_at_the_bound$", mode: tcpLinks,
			agents: 1, replicas: 1, depth: DefaultQueueDepth, slabPages: 64, pages: maxUnreaped / PageSize, sockBuf: 32 << 10}
		for p := range core.PageID(tp.pages) {
			tp.ops = append(tp.ops, at(opWritePage, p))
		}
		tp.ops = append(tp.ops, flush)
		for p := range core.PageID(tp.pages) {
			tp.ops = append(tp.ops, at(opReadAsync, p))
		}
		runHostModel(t, tp, flush, expect("writeStall unstuck 8 request writes at most", func(r *hostRun) bool {
			return r.stalls() <= 8
		}))
	})
}

// TestTrainOnTCP: what the transport promises of a train, over the host's
// doorbells.
func TestTrainOnTCP(t *testing.T) {
	t.Run("one write", func(t *testing.T) {
		tp := hostTape{seed: 1, replay: "^TestTrainOnTCP$/^one_write$", mode: tcpLinks, agents: 1, replicas: 1, depth: 8,
			slabPages: 64, pages: 32}
		for p := range core.PageID(tp.pages) {
			tp.ops = append(tp.ops, at(opWritePage, p))
		}
		tp.ops = append(tp.ops, flush)
		for _, k := range []int{1, 2, 4} {
			var n [3]int64 // the conn's writes, the transport's and their frames
			count := func(r *hostRun) [3]int64 {
				c := r.conn(0)
				writes, frames := c.tr.doorbells()
				return [3]int64{c.writes.Load(), writes, frames}
			}
			for p := range core.PageID(8 * k) {
				tp.ops = append(tp.ops, at(opReadAsync, p))
			}
			tp.ops = append(tp.ops, expect("counted", func(r *hostRun) bool { n = count(r); return true }), submit,
				expect(fmt.Sprint("a doorbell's train of ", k, " frames is one socket write"), func(r *hostRun) bool {
					m := count(r)
					return m == [3]int64{n[0] + 1, n[1] + 1, n[2] + int64(k)}
				}), flush)
		}
		runHostModel(t, tp)
	})
	t.Run("order under waiters and a launch", func(t *testing.T) { hostSlice(t, 2, "add-agent", onTCP) })
	t.Run("a waiter sends the train", func(t *testing.T) { hostSlice(t, 2, "slow-reader", onTCP, buffered(32<<10, 1, 24)) })
	t.Run("a failed write poisons the train", func(t *testing.T) { hostSlice(t, 2, "reset", onTCP) })
	t.Run("writeStall unsticks a train", func(t *testing.T) {
		hostSlice(t, 1, "slow-reader", onTCP, buffered(32<<10, 8, 32), func(tp *hostTape) { tp.agents = 1 }, coda(expect("writeStall fired", func(r *hostRun) bool {
			return r.stalls() > 0
		})))
	})
}

// TestDemandReadsRunOutsideHostLock: over links that finish what they start, a
// demand read's Call runs with Host.mu released: inside it, a demand read of
// the other agent's and a ReadPageAsync + Submit of its own agent's complete.
func TestDemandReadsRunOutsideHostLock(t *testing.T) {
	tp := hostTape{seed: 5, replay: "^TestDemandReadsRunOutsideHostLock$", mode: callLinks, agents: 2, replicas: 1,
		depth: 4, slabPages: 1, pages: 8}
	var on [2][]core.PageID
	for p := range core.PageID(tp.pages) {
		a := rankOf(tp.seed, 2)(SlabID(p), nil)[0]
		on[a] = append(on[a], p)
		tp.ops = append(tp.ops, at(opWriteSync, p))
	}
	runHostModel(t, tp, tapeOp{kind: opTrigger, name: "in", link: 0, frame: OpRead, then: []tapeOp{at(opRead, on[1][0]),
		named("w", at(opReadAsync, on[0][1])), submit, expect("the read completed beside the demand read", done(true, "w"))}},
		at(opRead, on[0][0]), expect("the demand read's Call took them in", fired("in")))
}

// TestWriteFramesStayInFlight: write frames left in the air by Submit, acks
// held, read back from the images the host keeps, then landed link by link.
func TestWriteFramesStayInFlight(t *testing.T) { hostSlice(t, 3, "out-of-step") }

// TestUnackedWindowBlocksWriter: a burst of one-page write frames fills the
// unacked window of every link, and standing holds each link to it.
func TestUnackedWindowBlocksWriter(t *testing.T) {
	hostSlice(t, 2, "slow-reader", onTCP, buffered(1<<20, 1, 24))
}

// TestLandingLandsOlderFlightsOfItsLink: a read through each link in turn lands
// the writes older on it, on connections that answer in order.
func TestLandingLandsOlderFlightsOfItsLink(t *testing.T) { hostSlice(t, 3, "out-of-step", onTCP) }

// TestResponseBufferNotReusedBeforeLanding: reads over TCP — swept, detached,
// waited for from two goroutines — with every released buffer poisoned
// (poison_test.go), each return an image of its page.
func TestResponseBufferNotReusedBeforeLanding(t *testing.T) {
	for _, scenario := range []string{"sweep", "detach", "ticket-waits"} {
		hostSlice(t, 1, scenario, onTCP)
	}
}

// TestLentResponseRevoked: the reaper is lent its response out of the receive
// buffer and, while it waits for Host.mu to land it, a goroutine holding
// Host.mu makes a direct Call on the link, as a copy does. The Call revokes the
// loan — copies the lent bytes out and reads on — and the reaper lands the copy.
func TestLentResponseRevoked(t *testing.T) {
	tp := hostTape{seed: 1, replay: "^TestLentResponseRevoked$", mode: tcpLinks, agents: 1, replicas: 1, depth: 8,
		slabPages: 64, pages: 16}
	var reads []string
	for p := range core.PageID(tp.pages) {
		tp.ops = append(tp.ops, at(opWritePage, p))
	}
	tp.ops = append(tp.ops, flush, on(opHold, -1))
	for p := range 8 {
		reads = append(reads, fmt.Sprint("r", p))
		tp.ops = append(tp.ops, named(reads[p], at(opReadAsync, core.PageID(p))))
	}
	var kept []byte // the Call's response, which nobody releases: nothing may recycle it
	runHostModel(t, tp, submit, named("reaper", wait(reads...)), expect("a Call under Host.mu revoked the loan", func(r *hostRun) bool {
		h, c := r.h, r.conn(0)
		h.mu.Lock() // the reaper waits on the held socket, Host.mu released
		defer h.mu.Unlock()
		c.set(func() { c.held = false })
		for lent := false; !lent; runtime.Gosched() {
			c.tr.mu.Lock()
			lent = c.tr.loan != nil && !c.tr.pinned
			c.tr.mu.Unlock()
		}
		resp, err := c.tr.Call(&Request{Op: OpRead, Slab: 0, PageOff: 9})
		c.tr.mu.Lock()
		defer c.tr.mu.Unlock()
		kept = resp.Payload
		return err == nil && c.tr.loan == nil && bytes.Equal(kept, r.images[9][len(r.images[9])-1][:])
	}), flush, at(opRead, 9), expect("the Call's response was left alone", func(r *hostRun) bool {
		return bytes.Equal(kept, r.images[9][len(r.images[9])-1][:])
	}))
}
