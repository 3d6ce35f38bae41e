package remote

import (
	"slices"
	"testing"

	"leap/internal/core"
	"leap/internal/pagemap"
)

// legacyReadCandidates is the attempt list as it was built, on every read,
// before readOrder walked the groups in place: the oracle of the tests below.
func legacyReadCandidates(h *Host, page core.PageID, replicas []int) []int {
	cands := replicas
	if extra := h.hot[page]; len(extra) > 0 {
		cands = slices.Clone(replicas)
		for _, idx := range extra {
			if !slices.Contains(cands, idx) {
				cands = append(cands, idx)
			}
		}
	}
	acked := h.rec(page).acked()
	order := make([]int, 0, len(cands))
	appendGroup := func(wantAcked, wantSlow bool) {
		for _, idx := range cands {
			if slices.Contains(acked, idx) == wantAcked && h.links[idx].slow == wantSlow {
				order = append(order, idx)
			}
		}
	}
	if !slices.ContainsFunc(h.links, func(l *link) bool { return l.slow }) {
		appendGroup(true, false)
		appendGroup(false, false)
		return order
	}
	appendGroup(true, false)
	appendGroup(true, true)
	appendGroup(false, false)
	appendGroup(false, true)
	return order
}

// orderHost is a host of four agents with just the state the read order
// consults.
func orderHost(page core.PageID, acked, hot, slow []int) *Host {
	h := &Host{records: pagemap.New[*record](0), hot: map[core.PageID][]int{}}
	for range 4 {
		h.links = append(h.links, &link{})
	}
	if acked != nil {
		h.newRecord(page).acks = acked
	}
	if hot != nil {
		h.hot[page] = hot
	}
	for _, idx := range slow {
		h.links[idx].slow = true
	}
	return h
}

// TestReadOrderWalksTheCandidateList: readOrder's pick is the first entry of
// the attempt list not yet tried, for every combination of acked, slow-hinted,
// hot and tried holders — by name for the cases the order exists for, and
// exhaustively over four agents against the list as it used to be built.
func TestReadOrderWalksTheCandidateList(t *testing.T) {
	const page = core.PageID(7)
	for _, c := range []struct {
		name                             string
		replicas, acked, hot, slow, want []int
	}{
		{"nothing acked: placement order", []int{2, 0}, nil, nil, nil, []int{2, 0}},
		{"acked before unacked", []int{2, 0}, []int{0}, nil, nil, []int{0, 2}},
		{"slow acked after fast acked, both before unacked", []int{0, 1, 2}, []int{0, 1}, nil, []int{0}, []int{1, 0, 2}},
		{"slow unacked last", []int{0, 1}, nil, nil, []int{0}, []int{1, 0}},
		{"hot extras after the placement, acked or not", []int{1, 2}, []int{2, 3}, []int{3, 0}, nil, []int{2, 3, 1, 0}},
		{"a hot holder the placement lists counts once", []int{1, 2}, []int{1, 2}, []int{2, 3}, nil, []int{1, 2, 3}},
		{"every acked holder slow: still acked first", []int{0, 1}, []int{0}, []int{2}, []int{0}, []int{0, 1, 2}},
	} {
		h := orderHost(page, c.acked, c.hot, c.slow)
		if got := legacyReadCandidates(h, page, c.replicas); !slices.Equal(got, c.want) {
			t.Errorf("%s: oracle gives %v, want %v", c.name, got, c.want)
		}
		if got := h.readCandidates(page, c.replicas); !slices.Equal(got, c.want) {
			t.Errorf("%s: readCandidates = %v, want %v", c.name, got, c.want)
		}
	}

	set := func(mask int) []int {
		var s []int
		for idx := 0; idx < 4; idx++ {
			if mask&(1<<idx) != 0 {
				s = append(s, idx)
			}
		}
		return s
	}
	for _, replicas := range [][]int{{0, 1}, {2, 0}, {3}, {1, 3, 2}} {
		for m := 0; m < 1<<16; m++ {
			acked, hot, slow, tried := set(m&15), set(m>>4&15), set(m>>8&15), set(m>>12)
			h := orderHost(page, acked, hot, slow)
			want := -1
			for _, idx := range legacyReadCandidates(h, page, replicas) {
				if !slices.Contains(tried, idx) {
					want = idx
					break
				}
			}
			if got := h.readOrder(page, h.rec(page), replicas, tried); got != want {
				t.Fatalf("replicas %v acked %v hot %v slow %v tried %v: readOrder = %d, want %d",
					replicas, acked, hot, slow, tried, got, want)
			}
		}
	}

	h := orderHost(page, []int{0, 3}, []int{3}, []int{0})
	replicas, tried := []int{0, 1}, []int{3}
	if allocs := testing.AllocsPerRun(100, func() { h.readOrder(page, h.rec(page), replicas, tried) }); allocs != 0 {
		t.Errorf("readOrder allocates %.0f times a call, want 0", allocs)
	}
}
