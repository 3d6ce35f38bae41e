// Package control is the self-healing control plane over a live
// remote.Host: a per-agent health monitor / failure detector, an autoscaler,
// and a hot-page replicator, all driven from virtual time so every decision
// replays deterministically.
//
// The recovery primitives themselves (MarkFailed, RepairSlabs,
// MarkRecovered, Rebalance, Retire, PurgeAgent, ReplicateHot) live in
// internal/remote and were previously invoked by hand from tests and
// examples; this package closes the loop. A harness feeds the plane
// per-call observations (ObserveCall, typically from a FaultTransport
// observer) and page-fault frequencies (ObserveRead), then calls Tick on a
// fixed virtual-time cadence; the plane decides, acts on the host, and
// reports every action it took.
//
// The detector's state machine per agent:
//
//	healthy ──p99/err EWMA ≥ suspect──▶ suspect ──≥ fail threshold──▶ failed
//	   ▲                                   │                            │
//	   └──── ClearTicks clean ticks ◀──────┘        MarkFailed +        │
//	   │                                            RepairSlabs         │
//	   └── MarkRecovered + Rebalance ◀── probation (Probe-driven, ◀─────┘
//	                                      flap damping lengthens it)
//
// A suspect agent is hinted slow to the host (reads order away from it to
// another acked holder); only a failed agent leaves placement.
// Recovery assumes the agent's memory survived the outage (a slow or
// partitioned agent, the cases the detector can see). An agent that
// restarted empty must go through PurgeAgent before rejoining — that is the
// harness's call to make, because only the harness knows the difference.
package control

import (
	"fmt"
	"slices"
	"sync"

	"leap/internal/core"
	"leap/internal/remote"
	"leap/internal/sim"
)

// DetectorConfig tunes the per-agent failure detector.
type DetectorConfig struct {
	// LatAlpha and ErrAlpha are the EWMA smoothing factors for the per-tick
	// p99 submit latency and the op error rate (defaults 0.3 / 0.3).
	LatAlpha, ErrAlpha float64
	// SuspectLat / FailLat are p99-EWMA thresholds: above SuspectLat an
	// agent turns suspect (hinted slow), above FailLat it is failed.
	SuspectLat, FailLat sim.Duration
	// SuspectErr / FailErr are error-rate-EWMA thresholds in [0,1].
	SuspectErr, FailErr float64
	// ClearTicks is how many consecutive clean ticks a suspect needs to
	// return to healthy (default 3).
	ClearTicks int
	// ProbationTicks is how many consecutive successful probes a failed
	// agent needs to be recovered (default 3). Each prior failure of the
	// same agent adds FlapPenalty ticks — flap damping, so an agent that
	// keeps bouncing pays an ever longer probation.
	ProbationTicks int
	// FlapPenalty is the probation surcharge per prior failure (default 2).
	FlapPenalty int
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.LatAlpha <= 0 || c.LatAlpha > 1 {
		c.LatAlpha = 0.3
	}
	if c.ErrAlpha <= 0 || c.ErrAlpha > 1 {
		c.ErrAlpha = 0.3
	}
	if c.ClearTicks <= 0 {
		c.ClearTicks = 3
	}
	if c.ProbationTicks <= 0 {
		c.ProbationTicks = 3
	}
	if c.FlapPenalty < 0 {
		c.FlapPenalty = 2
	}
	return c
}

// ScalerConfig tunes the autoscaler.
type ScalerConfig struct {
	// Min and Max bound the live agent pool. Max 0 (the zero value)
	// disables scale-up entirely — set it explicitly to allow growth.
	// Min 0 defaults to 1.
	Min, Max int
	// HighLat / LowLat are cluster-latency (mean of live agents' p99 EWMA)
	// thresholds: sustained above HighLat grows the pool, sustained below
	// LowLat shrinks it.
	HighLat, LowLat sim.Duration
	// UpTicks / DownTicks are how many consecutive ticks the pressure must
	// persist before acting (defaults 3 / 6 — shrinking is deliberately
	// slower than growing).
	UpTicks, DownTicks int
	// Cooldown is the tick count after any scale action during which the
	// scaler holds still (default 5), so one burst cannot thrash the pool.
	Cooldown int
}

func (c ScalerConfig) withDefaults() ScalerConfig {
	if c.Min <= 0 {
		c.Min = 1
	}
	if c.UpTicks <= 0 {
		c.UpTicks = 3
	}
	if c.DownTicks <= 0 {
		c.DownTicks = 6
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5
	}
	return c
}

// Config assembles the control plane.
type Config struct {
	Detector DetectorConfig
	Scaler   ScalerConfig
	// HotK is how many top-fault-frequency pages carry extra read replicas
	// (0 disables hot replication); HotExtra is the number of extra copies
	// per hot page (default 1); HotEvery is the refresh cadence in ticks
	// (default 8).
	HotK, HotExtra, HotEvery int
}

func (c Config) withDefaults() Config {
	c.Detector = c.Detector.withDefaults()
	c.Scaler = c.Scaler.withDefaults()
	if c.HotExtra <= 0 {
		c.HotExtra = 1
	}
	if c.HotEvery <= 0 {
		c.HotEvery = 8
	}
	return c
}

// Hooks connect the plane to its environment.
//
// Provision and Probe are invoked from inside Tick with the plane's internal
// lock held (their answers feed the decision in progress): they may call into
// the host or the harness, but must not call back into Plane methods
// (AgentPhase, LiveAgents, Tick, ...) or they self-deadlock. ObserveCall and
// ObserveRead remain safe from anywhere, including hooks. OnAction is
// delivered after Tick releases the lock, so it may call anything.
type Hooks struct {
	// Provision returns a transport for a brand-new agent when the scaler
	// wants one beyond the already-known pool (nil or returning false
	// disables provisioning; drained agents are reused first).
	Provision func() (remote.Transport, bool)
	// Probe reports whether a failed agent answers again — the recovery
	// signal. Nil means failed agents are never auto-recovered.
	Probe func(agent int) bool
	// OnAction, if set, observes every action a Tick took, in execution
	// order, once the tick's decisions are complete.
	OnAction func(Action)
}

// ActionKind labels one control-plane decision.
type ActionKind uint8

// The actions a Tick can take.
const (
	ActSuspect ActionKind = iota
	ActClear
	ActFail
	ActRecover
	ActScaleUp
	ActScaleDown
	ActHotAdd
	ActHotDrop
)

var actionNames = [...]string{
	ActSuspect:   "suspect",
	ActClear:     "clear",
	ActFail:      "fail",
	ActRecover:   "recover",
	ActScaleUp:   "scale-up",
	ActScaleDown: "scale-down",
	ActHotAdd:    "hot-add",
	ActHotDrop:   "hot-drop",
}

// String names the action kind.
func (k ActionKind) String() string {
	if int(k) < len(actionNames) {
		return actionNames[k]
	}
	return fmt.Sprintf("action(%d)", uint8(k))
}

// Action records one decision the plane acted on: which agent (or page, for
// hot replication) and any error the host returned while executing it.
type Action struct {
	At    sim.Time
	Kind  ActionKind
	Agent int         // -1 for page-scoped actions
	Page  core.PageID // hot actions only
	Err   error       // non-nil when the host-side execution failed
}

// String renders the action compactly.
func (a Action) String() string {
	s := fmt.Sprintf("%v %s", a.At.Sub(0), a.Kind)
	if a.Agent >= 0 {
		s += fmt.Sprintf(" agent=%d", a.Agent)
	}
	if a.Kind == ActHotAdd || a.Kind == ActHotDrop {
		s += fmt.Sprintf(" page=%d", a.Page)
	}
	if a.Err != nil {
		s += fmt.Sprintf(" err=%v", a.Err)
	}
	return s
}

// Phase is an agent's detector state.
type Phase uint8

// Detector phases.
const (
	Healthy Phase = iota
	Suspect
	Failed
	Drained // scaled down; parked for reuse
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Failed:
		return "failed"
	case Drained:
		return "drained"
	}
	return fmt.Sprintf("phase(%d)", uint8(p))
}

// agentState is the detector's per-agent memory.
type agentState struct {
	phase   Phase
	latEWMA float64 // p99 submit latency EWMA, in virtual ns
	errEWMA float64 // op error rate EWMA in [0,1]
	// loadEWMA smooths calls-per-tick — the queue-depth proxy the scaler
	// and tests can inspect.
	loadEWMA float64

	cleanStreak int // suspect → healthy progress
	probeStreak int // failed → recovered progress
	flaps       int // times this agent has been failed (damping input)
}

// agentObs accumulates one agent's raw observations between ticks. Guarded
// by Plane.obsMu, never Plane.mu — so transport observers can feed the
// plane even while Tick is mid-repair on the host (repair traffic flows
// through the same observed transports).
type agentObs struct {
	samples []sim.Duration
	calls   int
	errs    int
}

// Plane is the control loop instance. Feed it observations from any
// goroutine; run Tick from one place (typically the virtual-time event
// loop). Safe for concurrent use.
type Plane struct {
	cfg   Config
	hooks Hooks
	host  *remote.Host

	// obsMu guards only the raw observation accumulators; it is never held
	// across host calls or hooks, and mu is never acquired under it.
	obsMu    sync.Mutex
	obs      []*agentObs
	hotCount map[core.PageID]int

	mu                   sync.Mutex
	agents               []*agentState
	ticks                int
	cool                 int // scaler cooldown remaining
	upStreak, downStreak int

	hotCur map[core.PageID]bool
}

// New builds a control plane over host, which must already have its initial
// agents attached.
func New(cfg Config, host *remote.Host, hooks Hooks) *Plane {
	cfg = cfg.withDefaults()
	p := &Plane{
		cfg:      cfg,
		hooks:    hooks,
		host:     host,
		hotCount: make(map[core.PageID]int),
		hotCur:   make(map[core.PageID]bool),
	}
	for i := 0; i < host.Agents(); i++ {
		p.agents = append(p.agents, &agentState{})
		p.obs = append(p.obs, &agentObs{})
	}
	return p
}

// ObserveCall records one transport call against agent: its virtual-time
// latency and whether it failed. Harnesses typically wire this to the
// FaultTransport observer.
func (p *Plane) ObserveCall(agent int, lat sim.Duration, failed bool) {
	p.obsMu.Lock()
	defer p.obsMu.Unlock()
	if agent < 0 || agent >= len(p.obs) {
		return
	}
	o := p.obs[agent]
	o.calls++
	if failed {
		o.errs++
	}
	o.samples = append(o.samples, lat)
}

// ObserveRead records one page fault served remotely — the hot-page
// frequency feed.
func (p *Plane) ObserveRead(page core.PageID) {
	p.obsMu.Lock()
	defer p.obsMu.Unlock()
	p.hotCount[page]++
}

// AgentPhase reports the detector phase of agent idx (Healthy for unknown
// indices).
func (p *Plane) AgentPhase(idx int) Phase {
	p.mu.Lock()
	defer p.mu.Unlock()
	if idx < 0 || idx >= len(p.agents) {
		return Healthy
	}
	return p.agents[idx].phase
}

// Phases reports every agent's detector phase, indexed by agent.
func (p *Plane) Phases() []Phase {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Phase, len(p.agents))
	for i, st := range p.agents {
		out[i] = st.phase
	}
	return out
}

// HotPages reports the pages currently carrying control-plane hot replicas,
// sorted.
func (p *Plane) HotPages() []core.PageID {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]core.PageID, 0, len(p.hotCur))
	for page := range p.hotCur {
		out = append(out, page)
	}
	slices.Sort(out)
	return out
}

// LiveAgents reports how many agents are currently serving (healthy or
// suspect — failed and drained agents are out of rotation).
func (p *Plane) LiveAgents() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.liveLocked()
}

func (p *Plane) liveLocked() int {
	n := 0
	for _, st := range p.agents {
		if st.phase == Healthy || st.phase == Suspect {
			n++
		}
	}
	return n
}

// Tick advances the control loop one step at virtual time now: it folds the
// tick's observations into the per-agent EWMAs, walks the detector state
// machine, runs the autoscaler, and refreshes hot-page replicas. It returns
// the actions taken this tick, in execution order.
func (p *Plane) Tick(now sim.Time) []Action {
	p.mu.Lock()
	p.ticks++
	var acts []Action
	emit := func(a Action) {
		a.At = now
		acts = append(acts, a)
	}

	p.foldTickStats()
	p.detect(emit)
	p.scale(emit)
	if p.cfg.HotK > 0 && p.ticks%p.cfg.HotEvery == 0 {
		p.refreshHot(emit)
	}
	p.mu.Unlock()

	// OnAction runs outside the lock so the hook may call back into the
	// plane (AgentPhase, LiveAgents, ...) without deadlocking.
	if p.hooks.OnAction != nil {
		for _, a := range acts {
			p.hooks.OnAction(a)
		}
	}
	return acts
}

// foldTickStats merges the tick's raw samples into the EWMAs and resets the
// accumulators. Callers hold p.mu (not obsMu).
func (p *Plane) foldTickStats() {
	d := p.cfg.Detector
	p.obsMu.Lock()
	for len(p.obs) < len(p.agents) {
		p.obs = append(p.obs, &agentObs{})
	}
	ticks := make([]agentObs, len(p.agents))
	for i, o := range p.obs[:len(p.agents)] {
		ticks[i] = agentObs{samples: o.samples, calls: o.calls, errs: o.errs}
		o.samples, o.calls, o.errs = nil, 0, 0
	}
	p.obsMu.Unlock()

	for i, st := range p.agents {
		o := ticks[i]
		st.loadEWMA = d.LatAlpha*float64(o.calls) + (1-d.LatAlpha)*st.loadEWMA
		if o.calls > 0 {
			slices.Sort(o.samples)
			p99 := o.samples[(len(o.samples)*99+99)/100-1]
			errRate := float64(o.errs) / float64(o.calls)
			st.latEWMA = d.LatAlpha*float64(p99) + (1-d.LatAlpha)*st.latEWMA
			st.errEWMA = d.ErrAlpha*errRate + (1-d.ErrAlpha)*st.errEWMA
		}
	}
}

// detect walks the per-agent state machine. Callers hold p.mu.
func (p *Plane) detect(emit func(Action)) {
	d := p.cfg.Detector
	for idx, st := range p.agents {
		switch st.phase {
		case Healthy:
			if p.overThreshold(st, d.SuspectLat, d.SuspectErr) {
				st.phase = Suspect
				st.cleanStreak = 0
				err := p.host.SetAgentSlow(idx, true)
				emit(Action{Kind: ActSuspect, Agent: idx, Err: err})
			}
			// A healthy agent can degrade straight past the fail bar in one
			// tick; fall through to the suspect check next tick rather than
			// double-transitioning now — one step per tick keeps every
			// transition observable and damped.
		case Suspect:
			if p.overThreshold(st, d.FailLat, d.FailErr) {
				st.phase = Failed
				st.flaps++
				st.probeStreak = 0
				err := p.host.MarkFailed(idx)
				if err == nil {
					_, err = p.host.RepairSlabs()
				}
				emit(Action{Kind: ActFail, Agent: idx, Err: err})
				break
			}
			if !p.overThreshold(st, d.SuspectLat, d.SuspectErr) {
				st.cleanStreak++
				if st.cleanStreak >= d.ClearTicks {
					st.phase = Healthy
					err := p.host.SetAgentSlow(idx, false)
					emit(Action{Kind: ActClear, Agent: idx, Err: err})
				}
			} else {
				st.cleanStreak = 0
			}
		case Failed:
			if p.hooks.Probe == nil {
				break
			}
			if p.hooks.Probe(idx) {
				st.probeStreak++
			} else {
				st.probeStreak = 0
			}
			need := d.ProbationTicks + d.FlapPenalty*(st.flaps-1)
			if st.probeStreak >= need {
				st.phase = Healthy
				st.latEWMA, st.errEWMA, st.cleanStreak = 0, 0, 0
				err := p.host.MarkRecovered(idx)
				if err == nil {
					err = p.host.SetAgentSlow(idx, false)
				}
				if err == nil {
					// Rebalance moves the agent's rendezvous share back onto
					// it with fresh copies, so its (possibly stale) survivors
					// of the outage are never read.
					_, err = p.host.Rebalance()
				}
				emit(Action{Kind: ActRecover, Agent: idx, Err: err})
			}
		}
	}
}

// overThreshold reports whether an agent's EWMAs breach the given bars.
// A zero bar is disabled. Callers hold p.mu.
func (p *Plane) overThreshold(st *agentState, lat sim.Duration, errRate float64) bool {
	if lat > 0 && st.latEWMA >= float64(lat) {
		return true
	}
	return errRate > 0 && st.errEWMA >= errRate
}

// scale runs the autoscaler: sustained pressure grows the pool (reusing
// drained agents before provisioning new ones), sustained idleness drains
// the highest-indexed live agent. Callers hold p.mu.
func (p *Plane) scale(emit func(Action)) {
	s := p.cfg.Scaler
	if s.HighLat == 0 && s.LowLat == 0 {
		return
	}
	if p.cool > 0 {
		p.cool--
		return
	}
	live, sum := 0, 0.0
	for _, st := range p.agents {
		if st.phase == Healthy || st.phase == Suspect {
			live++
			sum += st.latEWMA
		}
	}
	if live == 0 {
		return
	}
	avg := sum / float64(live)

	if s.HighLat > 0 && avg >= float64(s.HighLat) && live < s.Max {
		p.upStreak++
		p.downStreak = 0
		if p.upStreak >= s.UpTicks {
			p.scaleUp(emit)
		}
		return
	}
	if s.LowLat > 0 && avg < float64(s.LowLat) && live > s.Min {
		p.downStreak++
		p.upStreak = 0
		if p.downStreak >= s.DownTicks {
			p.scaleDown(emit)
		}
		return
	}
	p.upStreak, p.downStreak = 0, 0
}

// scaleUp adds capacity: reinstate the lowest-indexed drained agent, or
// provision a brand-new one. Callers hold p.mu.
func (p *Plane) scaleUp(emit func(Action)) {
	for idx, st := range p.agents {
		if st.phase != Drained {
			continue
		}
		err := p.host.Reinstate(idx)
		if err == nil {
			_, err = p.host.Rebalance()
		}
		if err == nil {
			st.phase = Healthy
			st.latEWMA, st.errEWMA = 0, 0
			p.upStreak, p.downStreak, p.cool = 0, 0, p.cfg.Scaler.Cooldown
		}
		emit(Action{Kind: ActScaleUp, Agent: idx, Err: err})
		return
	}
	if p.hooks.Provision == nil {
		return
	}
	tr, ok := p.hooks.Provision()
	if !ok {
		return
	}
	idx := p.host.AddAgent(tr)
	for len(p.agents) <= idx {
		p.agents = append(p.agents, &agentState{})
	}
	p.obsMu.Lock()
	for len(p.obs) < len(p.agents) {
		p.obs = append(p.obs, &agentObs{})
	}
	p.obsMu.Unlock()
	_, err := p.host.Rebalance()
	p.upStreak, p.downStreak, p.cool = 0, 0, p.cfg.Scaler.Cooldown
	emit(Action{Kind: ActScaleUp, Agent: idx, Err: err})
}

// scaleDown drains the highest-indexed live agent: Retire (leave the
// rendezvous ranking while staying a live copy source) → Rebalance (migrate
// its share away) → PurgeAgent (drop the now-redundant bookkeeping). A
// rebalance failure rolls the drain back with Reinstate. Callers hold p.mu.
func (p *Plane) scaleDown(emit func(Action)) {
	victim := -1
	for idx, st := range p.agents {
		if st.phase == Healthy || st.phase == Suspect {
			victim = idx
		}
	}
	if victim < 0 {
		return
	}
	st := p.agents[victim]
	err := p.host.Retire(victim)
	if err == nil {
		if _, err = p.host.Rebalance(); err != nil {
			// Mid-drain failure: the agent still holds everything it held;
			// put it back in the ranking and try again another tick.
			_ = p.host.Reinstate(victim)
		}
	}
	if err == nil {
		_, err = p.host.PurgeAgent(victim)
	}
	if err == nil {
		st.phase = Drained
		st.latEWMA, st.errEWMA = 0, 0
		_ = p.host.SetAgentSlow(victim, false)
		p.upStreak, p.downStreak, p.cool = 0, 0, p.cfg.Scaler.Cooldown
	}
	emit(Action{Kind: ActScaleDown, Agent: victim, Err: err})
}

// refreshHot recomputes the top-K fault-frequency pages and converges the
// host's hot replica set onto them, then decays the counters so the ranking
// tracks the recent past. Callers hold p.mu.
func (p *Plane) refreshHot(emit func(Action)) {
	type pc struct {
		page  core.PageID
		count int
	}
	p.obsMu.Lock()
	ranked := make([]pc, 0, len(p.hotCount))
	for page, n := range p.hotCount {
		if n >= 2 { // a single fault is noise, not heat
			ranked = append(ranked, pc{page, n})
		}
	}
	for page, n := range p.hotCount {
		if n >>= 1; n == 0 {
			delete(p.hotCount, page)
		} else {
			p.hotCount[page] = n
		}
	}
	p.obsMu.Unlock()
	slices.SortFunc(ranked, func(a, b pc) int {
		switch {
		case a.count > b.count:
			return -1
		case a.count < b.count:
			return 1
		case a.page < b.page:
			return -1
		case a.page > b.page:
			return 1
		}
		return 0
	})
	if len(ranked) > p.cfg.HotK {
		ranked = ranked[:p.cfg.HotK]
	}
	want := make(map[core.PageID]bool, len(ranked))
	for _, e := range ranked {
		want[e.page] = true
	}

	// Demote pages that cooled off (sorted for determinism)...
	var drop []core.PageID
	for page := range p.hotCur {
		if !want[page] {
			drop = append(drop, page)
		}
	}
	slices.Sort(drop)
	for _, page := range drop {
		if !p.host.DropHot(page) {
			// The hot holders carry the only certified copy and the placement
			// could not take it back yet (replicas down or a write in
			// flight): keep the page hot and retry next refresh.
			continue
		}
		delete(p.hotCur, page)
		emit(Action{Kind: ActHotDrop, Agent: -1, Page: page})
	}
	// ...then promote the newly hot, in rank order.
	for _, e := range ranked {
		if p.hotCur[e.page] {
			continue
		}
		added, err := p.host.ReplicateHot(e.page, p.cfg.HotExtra)
		if err == nil && added == 0 {
			continue // no certifiable source or no spare agent; retry later
		}
		if err == nil {
			p.hotCur[e.page] = true
		}
		emit(Action{Kind: ActHotAdd, Agent: -1, Page: e.page, Err: err})
	}
}
