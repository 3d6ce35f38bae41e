package prefetch

import "fmt"

// Ensemble is the online per-client prefetcher selector: a regret-tracking
// bandit over the existing zoo. One instance of each arm runs per stripe,
// observing the full interleaved swap-in stream — exactly the deployment a
// fixed policy would see, which is what makes the one-arm parity oracle
// exact and keeps the global-stream baselines (stride, read-ahead, GHB)
// honest about cross-tenant interference. What is per client (PID) is the
// *selection*: each client scores every arm against its own accesses, and
// only its current winner's candidates are issued for its faults; the
// losers run as shadows, their predictions parked in bounded per-client
// shadow sets that later accesses score against. At the end of each epoch
// (a fixed number of misses) the arms' coverage-minus-pollution scores are
// compared and the selection switches only after a challenger beats the
// incumbent by a hysteresis margin for SwitchStreak consecutive epochs —
// so selection is a pure function of the access stream, deterministic
// given the seed that produced it.
//
// The design follows the ROADMAP's learned-prefetching line (Hashemi et
// al.) collapsed to its cheapest deployable form: instead of learning a
// predictor, learn *which* predictor, with the accuracy/coverage counters
// the runtime already keeps (§3.1 definitions) as the reward signal.
type Ensemble struct {
	cfg   EnsembleConfig
	arms  []string
	insts []Prefetcher // one shared instance per arm, like a fixed policy

	clients map[PID]*ensClient

	// lastPID/lastClient memoize the most recent client lookup, like
	// Leap's predictor memo: fault paths issue runs from one process.
	lastPID    PID
	lastClient *ensClient

	scratch []PageID // shadow arms' prediction buffer, reused

	// Cross-client totals for Stats aggregation.
	epochs   int64
	switches int64
	regret   int64
}

// EnsembleConfig tunes the selector. The zero value of every field selects
// the defaults listed on it.
type EnsembleConfig struct {
	// Arms names the candidate prefetchers, in priority order: index 0 is
	// the initial selection for every client and the tiebreak winner.
	// Default: leap, ghb, stride, readahead, nextnline. "ensemble" itself
	// and "none" are rejected (none has nothing to score).
	Arms []string
	// EpochFaults is the number of misses per client between selection
	// decisions (default 64).
	EpochFaults int
	// Hysteresis is the score margin a challenger must exceed the
	// incumbent by (default 0.1); SwitchStreak is how many consecutive
	// epochs it must hold the margin (default 2).
	Hysteresis   float64
	SwitchStreak int
	// ShadowWindow bounds each shadow arm's parked predictions, in pages
	// (default 256): the oldest prediction is forgotten when a new one
	// overflows the window.
	ShadowWindow int
	// PollutionPenalty weights unconsumed predictions against coverage in
	// the score (default 0.25): score = hits/faults − penalty·misses/issued.
	PollutionPenalty float64
	// HistoryLimit caps each client's recorded selection history (default
	// 64 events; recording stops at the cap, the selector keeps running).
	HistoryLimit int
}

// DefaultEnsembleArms is the default candidate set, in priority order.
var DefaultEnsembleArms = []string{"leap", "ghb", "stride", "readahead", "nextnline"}

// Defaults for EnsembleConfig's zero fields.
const (
	defaultEpochFaults      = 64
	defaultHysteresis       = 0.1
	defaultSwitchStreak     = 2
	defaultShadowWindow     = 256
	defaultPollutionPenalty = 0.25
	defaultHistoryLimit     = 64
)

// Selection is one entry of a client's selection history: the arm that took
// over at the client's Fault-th miss (Fault 0 is the initial selection).
type Selection struct {
	// Fault is the client's cumulative miss count when the arm took over.
	Fault int64
	// Arm is the selected prefetcher's registered name.
	Arm string
}

// ensClient is one client's selector state: the shadow sets and epoch
// counters scoring each shared arm against this client's accesses, and the
// selection machine.
type ensClient struct {
	shadow []shadowSet

	// Per-arm epoch counters: issued predictions and scored hits (real
	// engine feedback for the selected arm, shadow consumption for the
	// rest). Reset every epoch.
	issued []int64
	hits   []int64

	faults      int64 // misses this epoch
	totalFaults int64 // misses since the client appeared

	selected   int
	challenger int
	streak     int

	history []Selection
}

// shadowSet parks a shadow arm's recent predictions: a FIFO ring bounded by
// ShadowWindow plus a refcounted membership map. A later access to a parked
// page consumes it — the counterfactual prefetch hit.
type shadowSet struct {
	ring []PageID
	head int
	n    int
	m    map[PageID]int32
}

func (s *shadowSet) add(pg PageID) {
	if s.n == len(s.ring) {
		old := s.ring[s.head]
		if c, ok := s.m[old]; ok {
			if c <= 1 {
				delete(s.m, old)
			} else {
				s.m[old] = c - 1
			}
		}
	} else {
		s.n++
	}
	s.ring[s.head] = pg
	s.head = (s.head + 1) % len(s.ring)
	s.m[pg]++
}

// consume reports (and forgets) a parked prediction of pg. Stale ring slots
// are tolerated: eviction checks membership before decrementing.
func (s *shadowSet) consume(pg PageID) bool {
	if _, ok := s.m[pg]; !ok {
		return false
	}
	delete(s.m, pg)
	return true
}

func (s *shadowSet) clear() {
	s.head, s.n = 0, 0
	clear(s.m)
}

// NewEnsemble builds the selector, validating the arm names against the
// registry. The zero config takes every default.
func NewEnsemble(cfg EnsembleConfig) (*Ensemble, error) {
	if len(cfg.Arms) == 0 {
		cfg.Arms = DefaultEnsembleArms
	}
	if cfg.EpochFaults <= 0 {
		cfg.EpochFaults = defaultEpochFaults
	}
	if cfg.Hysteresis <= 0 {
		cfg.Hysteresis = defaultHysteresis
	}
	if cfg.SwitchStreak <= 0 {
		cfg.SwitchStreak = defaultSwitchStreak
	}
	if cfg.ShadowWindow <= 0 {
		cfg.ShadowWindow = defaultShadowWindow
	}
	if cfg.PollutionPenalty <= 0 {
		cfg.PollutionPenalty = defaultPollutionPenalty
	}
	if cfg.HistoryLimit <= 0 {
		cfg.HistoryLimit = defaultHistoryLimit
	}
	arms := make([]string, len(cfg.Arms))
	insts := make([]Prefetcher, len(cfg.Arms))
	seen := map[string]bool{}
	for i, name := range cfg.Arms {
		if name == "ensemble" || name == "none" {
			return nil, fmt.Errorf("prefetch: ensemble arm %q not allowed", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("prefetch: duplicate ensemble arm %q", name)
		}
		seen[name] = true
		p, err := New(name)
		if err != nil {
			return nil, fmt.Errorf("prefetch: ensemble arm %d: %w", i, err)
		}
		arms[i], insts[i] = name, p
	}
	return &Ensemble{cfg: cfg, arms: arms, insts: insts, clients: make(map[PID]*ensClient)}, nil
}

// Name implements Prefetcher.
func (e *Ensemble) Name() string { return "ensemble" }

// Arms reports the resolved candidate names, in priority order.
func (e *Ensemble) Arms() []string {
	out := make([]string, len(e.arms))
	copy(out, e.arms)
	return out
}

func (e *Ensemble) client(pid PID) *ensClient {
	if e.lastClient != nil && e.lastPID == pid {
		return e.lastClient
	}
	c, ok := e.clients[pid]
	if !ok {
		c = &ensClient{
			shadow:     make([]shadowSet, len(e.arms)),
			issued:     make([]int64, len(e.arms)),
			hits:       make([]int64, len(e.arms)),
			challenger: -1,
		}
		for i := range c.shadow {
			c.shadow[i] = shadowSet{
				ring: make([]PageID, e.cfg.ShadowWindow),
				m:    make(map[PageID]int32, e.cfg.ShadowWindow),
			}
		}
		c.history = append(c.history, Selection{Fault: 0, Arm: e.arms[0]})
		e.clients[pid] = c
	}
	e.lastPID, e.lastClient = pid, c
	return c
}

// OnAccess implements Prefetcher. Every arm observes the access; only the
// arm this client selected has its candidates appended to dst. The other
// arms' candidates are parked in the client's shadow sets, and a parked
// page being accessed now is that arm's counterfactual prefetch hit — it
// is consumed, scored, and fed back to the arm as OnPrefetchHit so its
// internal window adaptation runs as if its window had been issued.
func (e *Ensemble) OnAccess(pid PID, page PageID, miss bool, dst []PageID) []PageID {
	c := e.client(pid)
	for i, arm := range e.insts {
		if i == c.selected {
			before := len(dst)
			dst = arm.OnAccess(pid, page, miss, dst)
			c.issued[i] += int64(len(dst) - before)
			continue
		}
		sh := &c.shadow[i]
		if sh.consume(page) {
			c.hits[i]++
			arm.OnPrefetchHit(pid)
		}
		e.scratch = arm.OnAccess(pid, page, miss, e.scratch[:0])
		for _, p := range e.scratch {
			c.issued[i]++
			sh.add(p)
		}
	}
	if miss {
		c.faults++
		c.totalFaults++
		if c.faults >= int64(e.cfg.EpochFaults) {
			e.endEpoch(c)
		}
	}
	return dst
}

// OnPrefetchHit implements Prefetcher: real engine feedback belongs to the
// selected arm — it is the one whose predictions were actually issued.
func (e *Ensemble) OnPrefetchHit(pid PID) {
	c := e.client(pid)
	c.hits[c.selected]++
	e.insts[c.selected].OnPrefetchHit(pid)
}

// Ahead implements RunAhead: the pages issued are the selected arm's, when it
// can run ahead at all, and count as its predictions.
func (e *Ensemble) Ahead(pid PID, page PageID, frame, train, limit, room int, dst []PageID) []PageID {
	c := e.client(pid)
	arm, ok := e.insts[c.selected].(RunAhead)
	if !ok {
		return dst
	}
	before := len(dst)
	dst = arm.Ahead(pid, page, frame, train, limit, room, dst)
	c.issued[c.selected] += int64(len(dst) - before)
	return dst
}

// score is the epoch reward for arm i: coverage minus weighted pollution.
// Coverage is scored hits over the epoch's misses; pollution is the
// unconsumed fraction of the arm's predictions (clamped at 0 — shadow hits
// may consume predictions parked in an earlier epoch).
func (c *ensClient) score(i int, penalty float64) float64 {
	cov := float64(c.hits[i]) / float64(c.faults)
	var pol float64
	if c.issued[i] > 0 {
		if waste := c.issued[i] - c.hits[i]; waste > 0 {
			pol = float64(waste) / float64(c.issued[i])
		}
	}
	return cov - penalty*pol
}

// endEpoch closes the client's epoch: score every arm, accumulate regret,
// advance the hysteresis state machine, and reset the epoch counters.
func (e *Ensemble) endEpoch(c *ensClient) {
	e.epochs++
	best, bestScore := 0, c.score(0, e.cfg.PollutionPenalty)
	bestHits := c.hits[0]
	for i := 1; i < len(e.insts); i++ {
		if s := c.score(i, e.cfg.PollutionPenalty); s > bestScore {
			best, bestScore = i, s
		}
		if c.hits[i] > bestHits {
			bestHits = c.hits[i]
		}
	}
	// Regret in the bandit sense, measured in prefetch hits: what the best
	// arm scored this epoch beyond what the selected arm scored.
	if d := bestHits - c.hits[c.selected]; d > 0 {
		e.regret += d
	}
	if best != c.selected && bestScore > c.score(c.selected, e.cfg.PollutionPenalty)+e.cfg.Hysteresis {
		if c.challenger == best {
			c.streak++
		} else {
			c.challenger, c.streak = best, 1
		}
		if c.streak >= e.cfg.SwitchStreak {
			c.selected = best
			c.challenger, c.streak = -1, 0
			e.switches++
			if len(c.history) < e.cfg.HistoryLimit {
				c.history = append(c.history, Selection{Fault: c.totalFaults, Arm: e.arms[best]})
			}
			// The new incumbent's predictions now issue for real; the old
			// one restarts as a shadow. Clear every shadow set so no arm
			// is scored on a stale counterfactual.
			for i := range c.shadow {
				c.shadow[i].clear()
			}
		}
	} else {
		c.challenger, c.streak = -1, 0
	}
	for i := range c.issued {
		c.issued[i], c.hits[i] = 0, 0
	}
	c.faults = 0
}

// Reset implements Prefetcher.
func (e *Ensemble) Reset() {
	for _, p := range e.insts {
		p.Reset()
	}
	e.clients = make(map[PID]*ensClient)
	e.lastClient = nil
	e.epochs, e.switches, e.regret = 0, 0, 0
}

// Selected reports the arm currently routing pid's live prefetches (ok
// false before the client's first access).
func (e *Ensemble) Selected(pid PID) (string, bool) {
	c, ok := e.clients[pid]
	if !ok {
		return "", false
	}
	return e.arms[c.selected], true
}

// History reports a copy of pid's selection history: the initial arm plus
// every switch, capped at HistoryLimit.
func (e *Ensemble) History(pid PID) []Selection {
	c, ok := e.clients[pid]
	if !ok {
		return nil
	}
	out := make([]Selection, len(c.history))
	copy(out, c.history)
	return out
}

// ClientArm exposes the named arm's shared per-stripe instance, gated on
// pid having appeared on this stripe (ok false for an unknown client or
// arm) — e.g. the "leap" arm for per-process predictor statistics.
func (e *Ensemble) ClientArm(pid PID, name string) (Prefetcher, bool) {
	if _, ok := e.clients[pid]; !ok {
		return nil, false
	}
	for i, n := range e.arms {
		if n == name {
			return e.insts[i], true
		}
	}
	return nil, false
}

// Totals reports the selector's cross-client accounting: clients seen,
// epochs closed, switches taken, and cumulative regret in prefetch hits.
func (e *Ensemble) Totals() (clients int, epochs, switches, regret int64) {
	return len(e.clients), e.epochs, e.switches, e.regret
}

func init() {
	Register("ensemble", func() Prefetcher {
		en, err := NewEnsemble(EnsembleConfig{})
		if err != nil {
			// Unreachable: the default config is always valid.
			panic(err)
		}
		return en
	})
}
