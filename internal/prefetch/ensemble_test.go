package prefetch

import (
	"reflect"
	"slices"
	"testing"

	"leap/internal/core"
)

func TestEnsembleArmValidation(t *testing.T) {
	cases := []struct {
		name string
		arms []string
	}{
		{"self", []string{"ensemble"}},
		{"none", []string{"leap", "none"}},
		{"duplicate", []string{"leap", "leap"}},
		{"unknown", []string{"bogus"}},
	}
	for _, tc := range cases {
		if _, err := NewEnsemble(EnsembleConfig{Arms: tc.arms}); err == nil {
			t.Errorf("%s: NewEnsemble(%v) did not error", tc.name, tc.arms)
		}
	}
	en, err := NewEnsemble(EnsembleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := en.Arms(); !reflect.DeepEqual(got, DefaultEnsembleArms) {
		t.Fatalf("default Arms() = %v, want %v", got, DefaultEnsembleArms)
	}
	if en.Name() != "ensemble" {
		t.Fatalf("Name() = %q", en.Name())
	}
}

// ensemblePairJumpStream drives the classic shadow-separating stream: pairs
// of consecutive misses separated by large jumps. Next-N-line scores a
// counterfactual hit on every second access; stride's extrapolations from
// the alternating deltas land nowhere.
func ensemblePairJumpStream(en *Ensemble, accesses int) {
	base := PageID(0)
	for i := 0; i < accesses; i++ {
		pg := base
		if i%2 == 1 {
			pg = base + 1
			base += 1000
		}
		en.OnAccess(1, pg, true, nil)
	}
}

func TestEnsembleSwitchesToBetterArm(t *testing.T) {
	en, err := NewEnsemble(EnsembleConfig{
		Arms:         []string{"stride", "nextnline"},
		EpochFaults:  8,
		SwitchStreak: 2,
		Hysteresis:   0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if arm, ok := en.Selected(1); ok || arm != "" {
		t.Fatalf("Selected before first access = %q, %v", arm, ok)
	}
	ensemblePairJumpStream(en, 40)
	if arm, ok := en.Selected(1); !ok || arm != "nextnline" {
		t.Fatalf("Selected = %q, %v; want nextnline", arm, ok)
	}
	h := en.History(1)
	if len(h) != 2 || h[0].Arm != "stride" || h[0].Fault != 0 || h[1].Arm != "nextnline" {
		t.Fatalf("History = %+v", h)
	}
	if h[1].Fault <= 0 {
		t.Fatalf("switch recorded at fault %d", h[1].Fault)
	}
	clients, epochs, switches, regret := en.Totals()
	if clients != 1 || switches != 1 || epochs < 4 {
		t.Fatalf("Totals = %d clients, %d epochs, %d switches", clients, epochs, switches)
	}
	if regret <= 0 {
		t.Fatalf("regret = %d; stride held the selection while nextnline scored shadow hits", regret)
	}
	// The new incumbent's candidates now issue for real.
	got := en.OnAccess(1, 5_000_000, true, nil)
	want := []PageID{5_000_001, 5_000_002, 5_000_003, 5_000_004, 5_000_005, 5_000_006, 5_000_007, 5_000_008}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-switch candidates = %v, want %v", got, want)
	}
}

func TestEnsembleDeterministic(t *testing.T) {
	run := func() ([][]PageID, []Selection) {
		en, err := NewEnsemble(EnsembleConfig{
			Arms:         []string{"stride", "nextnline"},
			EpochFaults:  8,
			SwitchStreak: 2,
			Hysteresis:   0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		var outs [][]PageID
		base := PageID(0)
		for i := 0; i < 60; i++ {
			pg := base
			if i%2 == 1 {
				pg = base + 1
				base += 1000
			}
			out := en.OnAccess(2, pg, true, nil)
			cp := make([]PageID, len(out))
			copy(cp, out)
			outs = append(outs, cp)
			if i%5 == 0 {
				en.OnPrefetchHit(2)
			}
		}
		return outs, en.History(2)
	}
	o1, h1 := run()
	o2, h2 := run()
	if !reflect.DeepEqual(o1, o2) {
		t.Fatal("same stream produced different candidate sequences")
	}
	if !reflect.DeepEqual(h1, h2) {
		t.Fatalf("same stream produced different histories: %+v vs %+v", h1, h2)
	}
}

// TestEnsembleOneArmShadowFree pins the parity contract the runtime-level
// oracle (TestEnsembleOneArmMatchesFixed) relies on: with a single arm the
// selected arm sees exactly the fixed policy's OnAccess/OnPrefetchHit
// stream, so outputs match call for call.
func TestEnsembleOneArmShadowFree(t *testing.T) {
	en, err := NewEnsemble(EnsembleConfig{Arms: []string{"readahead"}})
	if err != nil {
		t.Fatal(err)
	}
	fixed := NewReadAhead(8)
	s := uint64(99)
	for i := 0; i < 300; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		pg := PageID(s % 4096)
		miss := s%3 != 0
		got := en.OnAccess(3, pg, miss, nil)
		want := fixed.OnAccess(3, pg, miss, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: ensemble = %v, fixed = %v", i, got, want)
		}
		if s%7 == 0 {
			en.OnPrefetchHit(3)
			fixed.OnPrefetchHit(3)
		}
	}
	clients, _, switches, regret := en.Totals()
	if clients != 1 || switches != 0 || regret != 0 {
		t.Fatalf("one-arm Totals: %d clients, %d switches, %d regret", clients, switches, regret)
	}
}

func TestEnsembleClientArmAndReset(t *testing.T) {
	en, err := NewEnsemble(EnsembleConfig{})
	if err != nil {
		t.Fatal(err)
	}
	en.OnAccess(5, 100, true, nil)
	if _, ok := en.ClientArm(5, "leap"); !ok {
		t.Fatal("ClientArm(5, leap) not found after access")
	}
	if _, ok := en.ClientArm(5, "bogus"); ok {
		t.Fatal("ClientArm found an arm that is not configured")
	}
	if _, ok := en.ClientArm(99, "leap"); ok {
		t.Fatal("ClientArm found an unseen client")
	}
	en.Reset()
	if _, ok := en.ClientArm(5, "leap"); ok {
		t.Fatal("Reset kept client state")
	}
	if clients, epochs, switches, regret := en.Totals(); clients+int(epochs+switches+regret) != 0 {
		t.Fatal("Reset kept totals")
	}
	// The memoized client pointer must not survive Reset.
	en.OnAccess(5, 100, true, nil)
	if _, ok := en.Selected(5); !ok {
		t.Fatal("client not rebuilt after Reset")
	}
}

func TestShadowSetWindowAndConsume(t *testing.T) {
	s := shadowSet{ring: make([]PageID, 2), m: make(map[PageID]int32, 2)}
	s.add(1)
	s.add(2)
	s.add(3) // evicts 1
	if s.consume(1) {
		t.Fatal("evicted page still consumable")
	}
	if !s.consume(3) {
		t.Fatal("parked page not consumable")
	}
	if s.consume(3) {
		t.Fatal("page consumed twice")
	}
	// Duplicate parks collapse to one consumable entry (whole-key delete).
	s.clear()
	s.add(7)
	s.add(7)
	if !s.consume(7) || s.consume(7) {
		t.Fatal("duplicate parks must consume exactly once")
	}
}

// TestEnsembleRunsAheadWithItsSelectedArm: the selector runs ahead exactly
// when the arm routing the client's prefetches can, with that arm's pages.
func TestEnsembleRunsAheadWithItsSelectedArm(t *testing.T) {
	scan := func(p Prefetcher) []PageID {
		ra := p.(RunAhead)
		var ahead []PageID
		issued := map[PageID]bool{}
		for pg := PageID(1000); pg < 1200; pg++ {
			if issued[pg] {
				p.OnPrefetchHit(1)
			}
			for _, c := range p.OnAccess(1, pg, !issued[pg], nil) {
				issued[c] = true
			}
			if issued[pg] {
				got := ra.Ahead(1, pg, 8, 8, 56, 56, nil)
				for _, c := range got {
					issued[c] = true
				}
				ahead = append(ahead, got...)
			}
		}
		return ahead
	}
	leapFirst, err := NewEnsemble(EnsembleConfig{Arms: []string{"leap", "stride"}})
	if err != nil {
		t.Fatal(err)
	}
	want := scan(NewLeap(core.Config{}))
	if got := scan(leapFirst); len(want) < 100 || !slices.Equal(got, want) {
		t.Fatalf("ensemble over leap ran ahead with %d pages, leap alone with %d", len(got), len(want))
	}
	strideFirst, err := NewEnsemble(EnsembleConfig{Arms: []string{"stride", "leap"}, EpochFaults: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if got := scan(strideFirst); len(got) != 0 {
		t.Fatalf("ensemble over stride, which cannot run ahead, issued %v", got)
	}
}
