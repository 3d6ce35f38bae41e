package main

import (
	"fmt"
	"time"

	"leap"
	"leap/bench/pageimg"
)

// access is one application load or store: 64 bytes at a slot of a page.
type access struct {
	page  int64
	slot  int
	write bool
}

// spec is one workload. Every workload is a closed loop: each of its
// goroutines issues its next access when the previous one returns.
type spec struct {
	name       string
	goroutines int
	// ops8 is the measured phase's access count, all goroutines together, at
	// -seconds 8; other run lengths scale it linearly. Counts are fixed, not
	// time-boxed, so that every counter repeats exactly.
	ops8 int64
	// pages is the data set written at set-up; capacity is the local budget
	// in pages, split over shards stripes.
	pages            int64
	capacity, shards int
	ztierBytes       int64
	// delay is added to every agent→host response by the delay-line proxy,
	// switched on once set-up is done.
	delay time.Duration
	// sampleEvery times one access in this many (a power of two).
	sampleEvery int64
	// gen returns goroutine g's access stream.
	gen func(g int, seed uint64) (func() access, error)
}

const dataPages = 16384 // 64 MiB, 16x the standard 1024-page local budget

// specs are the workloads, under the names later issues cite. Why each one
// exists — which layers it exercises and which it bypasses — is written in
// BENCHMARK.json and README.md.
var specs = []spec{
	{
		name:       "seq_read",
		goroutines: 1, ops8: 800_000, pages: dataPages, capacity: 1024, sampleEvery: 1,
		gen: seqGen(0, dataPages, false),
	},
	{
		name:       "rand_read",
		goroutines: 1, ops8: 400_000, pages: dataPages, capacity: 1024, sampleEvery: 1,
		gen: randGen(dataPages),
	},
	{
		name:       "seq_read_far",
		goroutines: 1, ops8: 26_000, pages: 8192, capacity: 1024, sampleEvery: 1,
		delay: time.Millisecond,
		gen:   seqGen(0, 8192, false),
	},
	{
		name:       "hot_mixed_2g",
		goroutines: 2, ops8: 64_000_000, pages: dataPages, capacity: 1024, shards: 2, sampleEvery: 64,
		gen: hotGen(256),
	},
	{
		name:       "seq_write",
		goroutines: 1, ops8: 330_000, pages: dataPages, capacity: 1024, sampleEvery: 1,
		gen: seqGen(0, dataPages, true),
	},
	{
		name:       "ztier_cycle",
		goroutines: 1, ops8: 700_000, pages: dataPages, capacity: 1024, sampleEvery: 1,
		ztierBytes: 16 << 20,
		// The last 3072 pages written are the ones the tier still holds
		// when set-up ends, so the cycle never leaves local memory.
		gen: seqGen(dataPages-3072, 3072, false),
	},
	{
		name: "app_mix_2g",
		// A 512-page budget, not the issue's 2048: at 2048 resident and
		// prefetch hits together are 49% of accesses, so the median access
		// sits on the cliff between a 1 us hit and a 15 us miss and jumps
		// between them from seed to seed; at 1024 they are 42% and the median
		// is the fastest few misses, which still moved by 25% with the seed.
		// At 512 a third of the accesses hit and the median is an ordinary
		// demand miss with the other goroutine's faults in its way, which is
		// what this workload is for.
		goroutines: 2, ops8: 220_000, pages: dataPages, capacity: 512, shards: 2, sampleEvery: 1,
		gen: appGen("powergraph", "voltdb"),
	},
}

func specByName(name string) (*spec, bool) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], true
		}
	}
	return nil, false
}

// rng is xorshift64*, seeded per goroutine from the workload seed.
type rng uint64

func newRNG(seed uint64, g int) *rng {
	z := seed*0x9E3779B97F4A7C15 + uint64(g+1)*0xBF58476D1CE4E5B9
	z = (z ^ z>>30) * 0x94D049BB133111EB
	r := rng(z | 1)
	return &r
}

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 0x2545F4914F6CDD1D
}

// seqGen scans n pages from first, wrapping, at a seeded slot of each page.
func seqGen(first, n int64, write bool) func(int, uint64) (func() access, error) {
	return func(g int, seed uint64) (func() access, error) {
		r := newRNG(seed, g)
		// The scan's starting page is seeded too; the pattern is not.
		pos := int64(r.next() % uint64(n))
		return func() access {
			a := access{page: first + pos, slot: int(r.next() % pageimg.Slots), write: write}
			pos++
			if pos == n {
				pos = 0
			}
			return a
		}, nil
	}
}

// randGen reads uniformly over n pages.
func randGen(n int64) func(int, uint64) (func() access, error) {
	return func(g int, seed uint64) (func() access, error) {
		r := newRNG(seed, g)
		return func() access {
			x := r.next()
			return access{page: int64(x>>16) % n, slot: int(x % pageimg.Slots)}
		}, nil
	}
}

// hotGen gives goroutine g its own n pages, 10% stores.
func hotGen(n int64) func(int, uint64) (func() access, error) {
	return func(g int, seed uint64) (func() access, error) {
		r := newRNG(seed, g)
		first := int64(g) * n
		return func() access {
			x := r.next()
			return access{
				page:  first + int64(x>>16)%n,
				slot:  int(x % pageimg.Slots),
				write: (x>>40)%10 == 0,
			}
		}, nil
	}
}

// appGen replays one application model per goroutine, page ids folded into
// the goroutine's own half of the data set, every 5th access a store.
func appGen(apps ...string) func(int, uint64) (func() access, error) {
	return func(g int, seed uint64) (func() access, error) {
		gen, err := leap.NewAppWorkload(apps[g], seed)
		if err != nil {
			return nil, fmt.Errorf("app workload: %w", err)
		}
		r := newRNG(seed, g)
		half := int64(dataPages / len(apps))
		first := int64(g) * half
		i := 0
		return func() access {
			i++
			pg := int64(gen.Next().Page) % half
			if pg < 0 {
				pg += half
			}
			return access{page: first + pg, slot: int(r.next() % pageimg.Slots), write: i%5 == 0}
		}, nil
	}
}
