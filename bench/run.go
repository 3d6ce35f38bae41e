package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"syscall"
	"time"

	"leap"
	"leap/bench/layers"
	"leap/bench/netx"
	"leap/bench/pageimg"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	// setups is how many times an untraced run sets up: setup_s is their
	// median and the last cluster is the one measured. untracedSetUps
	// everywhere but in the smoke test, whose ten seconds cannot pay for
	// three populates per workload.
	setups int
	// probeDur is how long each stand-alone probe of a traced run lasts;
	// negative skips the probes.
	probeDur time.Duration
	// skewPage, when >= 0, skews the expected image of that one page: the
	// self-test that verification can fail.
	skewPage int64
}

// metric is one reported number.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// result is what one run reports. An untraced run carries the end-to-end
// metrics, a traced run the per-layer ones.
type result struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Traced    bool     `json:"traced"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Samples   int      `json:"latency_samples"`
	Metrics   []metric `json:"metrics"`
	Env       envInfo  `json:"env"`
	// FirstError is the first operation error seen, for diagnosis.
	FirstError string `json:"first_error,omitempty"`
}

func (r *result) add(name, unit string, v float64) {
	r.Metrics = append(r.Metrics, metric{name, unit, v})
}

const (
	// runSeconds is the run length BENCHMARK.json passes as --seconds.
	runSeconds = 20
	// untracedSetUps is how many times an untraced run sets up.
	untracedSetUps = 3
	// warmUpSeconds caps the warm-up: 10% of the op count, at most that of
	// a run this long, so that a longer run does not pay for it three times.
	warmUpSeconds = 8
	// pages_per_s and access_p50_us are read off equal-time windows of the
	// measured phase, minWindow long or as long as minWindowSamples timed
	// accesses take on average, whichever is longer.
	minWindow        = 10 * time.Millisecond
	minWindowSamples = 500
	// fastShare is where in the windows the two are read: the rate that the
	// fastest tenth of the windows reached, the median latency that the
	// fastest tenth stayed under. See phase.
	fastShare = 0.1
)

// worker is one closed-loop client goroutine.
type worker struct {
	c    *leap.MemoryClient
	next func() access
	buf  [pageimg.SlotSize]byte
	want [pageimg.SlotSize]byte

	attempted, failed int64
	firstErr          error

	// Outputs of the last timed phase: start time and latency of each
	// sampled access (ns since the tracer's epoch / ns), and the time when
	// the last access had returned.
	start, lat []int64
	end        int64
}

// runner drives one workload on one cluster.
type runner struct {
	sp     *spec
	cfg    config
	tracer *layers.Tracer
	cl     *cluster
	// ver is the version of every slot of the data set: the image a read
	// must return is a function of (page, slot, version). Each goroutine
	// touches only its own pages' entries.
	ver     []uint32
	workers []*worker
}

// expect writes the image a read of (page, slot) must return.
func (r *runner) expect(dst []byte, page int64, slot int) {
	v := r.ver[page*pageimg.Slots+int64(slot)]
	if page == r.cfg.skewPage {
		v++
	}
	pageimg.FillSlot(dst, page, slot, v)
}

// perWorker sizes a phase: share of the workload's op count for a run of
// this length, per goroutine.
func (r *runner) perWorker(seconds, share float64) int64 {
	n := float64(r.sp.ops8) * seconds / 8 * share / float64(r.sp.goroutines)
	return max(int64(n), 1)
}

// setUp starts the cluster, writes the data set through WriteAt + Flush and
// runs the warm-up (10% of the op count, at most that of a run of
// warmUpSeconds, verified like every access).
func (r *runner) setUp() error {
	cl, err := startCluster(r.sp, r.cfg.seed, r.tracer, r.cfg.traced)
	if err != nil {
		return err
	}
	r.cl = cl
	r.ver = make([]uint32, r.sp.pages*pageimg.Slots)
	r.workers = r.workers[:0]
	for g := 0; g < r.sp.goroutines; g++ {
		next, err := r.sp.gen(g, r.cfg.seed)
		if err != nil {
			return err
		}
		r.workers = append(r.workers, &worker{c: cl.mem.Client(g), next: next})
	}
	img := make([]byte, pageimg.PageSize)
	w0 := r.workers[0]
	for pg := int64(0); pg < r.sp.pages; pg++ {
		pageimg.FillPage(img, pg)
		if _, err := w0.c.WriteAt(img, pg*pageimg.PageSize); err != nil {
			return fmt.Errorf("populate page %d: %w", pg, err)
		}
	}
	if err := cl.mem.Flush(); err != nil {
		return fmt.Errorf("populate: flush: %w", err)
	}
	r.runPhase(r.perWorker(min(r.cfg.seconds, warmUpSeconds), 0.1), false)
	for _, p := range cl.proxies {
		p.SetDelay(r.sp.delay)
	}
	return nil
}

// phase is what one measured phase observed from outside the library.
type phase struct {
	accesses int64
	wall     time.Duration
	// rate (pages/s) and p50 (ns) are read off the phase's windows at the
	// fast end: the rate a tenth of the windows reached, the median latency
	// a tenth of them stayed under. The reference box is a slice of a
	// shared host whose speed steps between levels 15-45% apart and stays on
	// one for anything between a tenth of a second and minutes, so what a
	// whole run averages is mostly which levels it met. A window is short
	// enough to lie on one level, a slower level only ever makes a window
	// slower, and a tenth of a run is enough windows not to be the luck of
	// one: the fast end is what the program does on the undisturbed machine,
	// which is the number that repeats.
	rate, p50 float64
	lat       []int64 // sampled access latencies, sorted, ns
	cpu       time.Duration
	wire      netx.Counters
	stats     [2]leap.MemoryStats
	mem       [2]runtime.MemStats
	virtual   time.Duration
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPhase has every worker issue n accesses. A timed phase records sampled
// latencies and returns the outside view of the phase.
func (r *runner) runPhase(n int64, timed bool) *phase {
	var ph *phase
	if timed {
		ph = &phase{accesses: n * int64(len(r.workers))}
		for _, w := range r.workers {
			samples := n/r.sp.sampleEvery + 1
			w.lat = make([]int64, 0, samples)
			w.start = make([]int64, 0, samples)
		}
		runtime.GC() // start every phase from a collected heap
		ph.stats[0] = r.cl.mem.Stats()
		runtime.ReadMemStats(&ph.mem[0])
		ph.wire = r.cl.counters()
		ph.virtual = time.Duration(r.cl.mem.Now())
		ph.cpu = cpuTime()
	}
	t0 := time.Now()
	if len(r.workers) == 1 {
		r.workers[0].run(r, n, timed)
	} else {
		var wg sync.WaitGroup
		for _, w := range r.workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.run(r, n, timed)
			}()
		}
		wg.Wait()
	}
	if !timed {
		return nil
	}
	ph.wall = time.Since(t0)
	ph.cpu = cpuTime() - ph.cpu
	ph.virtual = time.Duration(r.cl.mem.Now()) - ph.virtual
	ph.wire = r.cl.counters().Sub(ph.wire)
	runtime.ReadMemStats(&ph.mem[1])
	ph.stats[1] = r.cl.mem.Stats()
	rates, p50s := windows(r.workers, r.sp.sampleEvery)
	ph.rate, ph.p50 = quantileOf(rates, 1-fastShare), quantileOf(p50s, fastShare)
	for _, w := range r.workers {
		ph.lat = append(ph.lat, w.lat...)
	}
	slices.Sort(ph.lat)
	return ph
}

// windows cuts the interval in which every worker was running into equal-time
// windows and reports each window's throughput and median access latency,
// both from the timed accesses that began in it (one in sampleEvery of all).
// Windows are aligned in time because two goroutines' rates are
// anti-correlated — one runs faster while the other is stalled — and only
// their sum over the same interval is the system's throughput. A window
// without a timed access reports no latency.
func windows(workers []*worker, sampleEvery int64) (rates, p50s []float64) {
	start, end := workers[0].start[0], workers[0].end
	samples := 0
	for _, w := range workers {
		start = max(start, w.start[0])
		end = min(end, w.end)
		samples += len(w.start)
	}
	if end <= start {
		// A phase too short for its workers to overlap (smoke scale): take
		// the whole span instead.
		for _, w := range workers {
			start = min(start, w.start[0])
			end = max(end, w.end)
		}
	}
	n := max(min(int((end-start)/int64(minWindow)), samples/minWindowSamples), 1)
	width := float64(end-start) / float64(n)
	var lat []int64
	for k := 0; k < n; k++ {
		from, to := start+int64(width*float64(k)), start+int64(width*float64(k+1))
		lat = lat[:0]
		for _, w := range workers {
			i, _ := slices.BinarySearch(w.start, from)
			j, _ := slices.BinarySearch(w.start, to)
			lat = append(lat, w.lat[i:j]...)
		}
		rates = append(rates, float64(int64(len(lat))*sampleEvery)/(width/1e9))
		if len(lat) > 0 {
			slices.Sort(lat)
			p50s = append(p50s, quantile(lat, 0.50))
		}
	}
	return rates, p50s
}

// run is the closed loop: n accesses, each issued when the previous one has
// returned and been checked.
func (w *worker) run(r *runner, n int64, timed bool) {
	tracer := r.tracer
	mask := r.sp.sampleEvery - 1
	for i := int64(0); i < n; i++ {
		a := w.next()
		off := a.page*pageimg.PageSize + int64(a.slot)*pageimg.SlotSize
		if a.write {
			vi := a.page*pageimg.Slots + int64(a.slot)
			r.ver[vi]++
			pageimg.FillSlot(w.buf[:], a.page, a.slot, r.ver[vi])
		}
		sample := timed && i&mask == 0
		var t0 int64
		if sample {
			t0 = tracer.Now()
		}
		var err error
		if a.write {
			_, err = w.c.WriteAt(w.buf[:], off)
		} else {
			_, err = w.c.ReadAt(w.buf[:], off)
		}
		if sample {
			w.lat = append(w.lat, tracer.Now()-t0)
			w.start = append(w.start, t0)
		}
		w.attempted++
		switch {
		case err != nil:
			w.failed++
			if w.firstErr == nil {
				w.firstErr = err
			}
		case !a.write:
			r.expect(w.want[:], a.page, a.slot)
			if w.buf != w.want {
				w.failed++
				if w.firstErr == nil {
					w.firstErr = fmt.Errorf("page %d slot %d: read bytes differ from the expected image", a.page, a.slot)
				}
			}
		}
	}
	if timed {
		w.end = tracer.Now()
	}
}

// runWorkload is one process's work: set up (several times, for a steady
// setup_s), measure, tear down, and for a traced run the probes.
func runWorkload(cfg config) (*result, error) {
	sp, ok := specByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	res := &result{Workload: sp.name, Seed: cfg.seed, Traced: cfg.traced, Env: readEnv()}
	calib := calibrate()
	r := &runner{sp: sp, cfg: cfg, tracer: layers.NewTracer()}
	defer func() {
		if r.cl != nil {
			r.cl.close() // error path: the error being returned is the one to report
		}
	}()
	setups := cfg.setups
	if cfg.traced {
		setups = 1 // a traced run does not report setup_s
	}
	var setupTimes []float64
	for i := 0; i < setups; i++ {
		if r.cl != nil {
			err := r.cl.close()
			r.cl, r.ver = nil, nil
			if err != nil {
				return nil, fmt.Errorf("set-up %d: close: %w", i, err)
			}
			// Hand the last cluster's 128 MiB of slabs back before building
			// the next, so that every set-up starts from an empty heap.
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		if err := r.setUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}

	if !cfg.traced {
		ph := r.runPhase(r.perWorker(r.cfg.seconds, 1), true)
		res.Samples = len(ph.lat)
		r.endToEnd(res, ph, median(setupTimes))
		// The samples are the benchmark's, not the system's: let go of them
		// before reading what the process holds on to.
		ph.lat = nil
		for _, w := range r.workers {
			w.start, w.lat = nil, nil
		}
		mib, err := residentMiB()
		if err != nil {
			return nil, err
		}
		res.add("resident_mb", "MiB", mib)
	} else {
		// The untraced quarter is the reference trace.overhead_pct compares
		// the traced half against, on the same cluster in the same state.
		ref := r.runPhase(r.perWorker(r.cfg.seconds, 0.25), true)
		r.setTracing(true)
		ph := r.runPhase(r.perWorker(r.cfg.seconds, 0.5), true)
		r.setTracing(false)
		res.Samples = len(ph.lat)
		r.perLayer(res, ph, ref, calib)
	}
	for _, w := range r.workers {
		res.Attempted += w.attempted
		res.Failed += w.failed
		if w.firstErr != nil && res.FirstError == "" {
			res.FirstError = w.firstErr.Error()
		}
	}
	if err := r.cl.mem.Flush(); err != nil {
		return nil, fmt.Errorf("final flush: %w", err)
	}
	cl := r.cl
	r.cl = nil
	if err := cl.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if !cfg.traced {
		return res, nil
	}
	// ru_maxrss is read once the cluster is gone, so that it covers the run.
	res.add("process.peak_rss_mb", "MiB", peakRSSMiB())
	// The probes are stand-alone: they run once the cluster is gone.
	if cfg.probeDur >= 0 {
		debug.FreeOSMemory()
		probes, err := layers.RunProbes(cfg.probeDur)
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		for _, m := range probes {
			res.add(m.Name, m.Unit, m.Value)
		}
	}
	return res, nil
}

func (r *runner) setTracing(on bool) {
	r.tracer.SetOn(on)
	for _, l := range r.cl.listeners {
		l.SetTracing(on)
	}
}
