package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"

	"leap/bench/netx"
	"leap/bench/pageimg"
)

// envInfo is the environment block recorded with every result, so that a
// number can be read next to the machine state that produced it.
type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Kernel     string `json:"kernel"`
	LoadAvg    string `json:"loadavg"`
}

func readEnv() envInfo {
	firstLine := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(strings.SplitN(string(b), "\n", 2)[0])
	}
	return envInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		LoadAvg:    firstLine("/proc/loadavg"),
	}
}

func (e envInfo) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s kernel=%s loadavg=[%s]",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Kernel, e.LoadAvg)
}

var calibSink uint64

// calibrate times a fixed pure-CPU loop (milliseconds): drift of the shared
// box shows here, beside the numbers it would distort.
func calibrate() float64 {
	t0 := time.Now()
	z := uint64(1)
	for i := 0; i < 20_000_000; i++ {
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z += 0x9E3779B97F4A7C15
	}
	calibSink = z
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// residentMiB is what the process holds on to: its resident set once a
// collection has handed every free span back to the kernel. ru_maxrss, the
// peak, is where the collector's cycle happened to stand when the heap was
// largest (81 to 107 MiB on ztier_cycle from one run to the next); what
// stays resident after a collection is the data the system keeps.
func residentMiB() (float64, error) {
	debug.FreeOSMemory()
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("resident set: %w", err)
	}
	var size, resident int64
	if _, err := fmt.Sscan(string(b), &size, &resident); err != nil {
		return 0, fmt.Errorf("resident set: /proc/self/statm: %w", err)
	}
	return float64(resident) * float64(os.Getpagesize()) / (1 << 20), nil
}

// quantileOf reports the q-quantile of xs, linearly between the two values
// next to it.
func quantileOf(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	j := min(i+1, len(s)-1)
	return s[i] + (s[j]-s[i])*(pos-float64(i))
}

func median(xs []float64) float64 { return quantileOf(xs, 0.5) }

// quantile reports the q-quantile of sorted as the mean of the samples
// ranked within ±0.25% of it. Latencies are whole nanoseconds and a fast
// path repeats the same few values, so a single order statistic would jump
// between integers; the rank-window mean moves continuously.
func quantile(sorted []int64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	lo := int((q - 0.0025) * float64(n))
	hi := int((q+0.0025)*float64(n)) + 1
	lo = max(lo, 0)
	hi = min(hi, n)
	if lo >= hi {
		lo = hi - 1
	}
	var sum float64
	for _, v := range sorted[lo:hi] {
		sum += float64(v)
	}
	return sum / float64(hi-lo)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// wireBytes is the traffic of a measured phase, both ways, per access.
func (ph *phase) wireBytes() float64 {
	return float64(ph.wire.BytesIn+ph.wire.BytesOut) / float64(ph.accesses)
}

// endToEnd fills in what a user of the system sees. bytes_moved_per_page is
// what serving one access moves: the 64 bytes handed to the application plus
// every byte the measured phase put on the wire, either way. The payload is
// in the sum because two workloads never leave local memory, and a metric
// that reads 0 there could not carry a relative bound; the wire part alone
// is wire_bytes_per_page, per layer.
func (r *runner) endToEnd(res *result, ph *phase, setupS float64) {
	res.add("pages_per_s", "pages/s", ph.rate)
	res.add("bytes_moved_per_page", "B", pageimg.SlotSize+ph.wireBytes())
	res.add("setup_s", "s", setupS)
}

// perLayer fills in the breakdown of a traced run: Stats deltas, span
// summaries, process counters and the model-vs-stopwatch ratio.
func (r *runner) perLayer(res *result, ph, ref *phase, calibMS float64) {
	n := float64(ph.accesses)
	s0, s1 := ph.stats[0], ph.stats[1]
	d := func(a, b int64) float64 { return float64(b - a) }
	accesses := d(s0.Accesses, s1.Accesses)
	faults := d(s0.Faults, s1.Faults)
	prefetchHits := d(s0.CacheHits, s1.CacheHits) + d(s0.InflightHits, s1.InflightHits)
	issued := d(s0.PrefetchIssued, s1.PrefetchIssued)

	res.add("access_p50_us", "us", ph.p50/1e3)
	res.add("access_p99_us", "us", quantile(ph.lat, 0.99)/1e3)
	res.add("cpu_us_per_page", "us", float64(ph.cpu.Nanoseconds())/1e3/n)
	res.add("wire_bytes_per_page", "B", ph.wireBytes())

	res.add("runtime.resident_hit_ratio", "ratio", ratio(d(s0.ResidentHits, s1.ResidentHits), accesses))
	res.add("runtime.demand_waits", "count", d(s0.DemandWaits, s1.DemandWaits))
	res.add("runtime.evictions", "count", d(s0.Evictions, s1.Evictions))
	res.add("runtime.writeback_pages", "count", d(s0.WritebackPages, s1.WritebackPages))

	res.add("paging.faults", "count", faults)
	res.add("paging.miss_ratio", "ratio", ratio(d(s0.Misses, s1.Misses), faults))
	res.add("paging.inflight_hit_ratio", "ratio", ratio(d(s0.InflightHits, s1.InflightHits), faults))
	res.add("paging.cache_hit_ratio", "ratio", ratio(d(s0.CacheHits, s1.CacheHits), faults))

	res.add("prefetch.issued_per_fault", "ratio", ratio(issued, faults))
	res.add("prefetch.accuracy", "ratio", ratio(prefetchHits, issued))
	res.add("prefetch.coverage", "ratio", ratio(prefetchHits, faults))

	z0, z1 := s0.Ztier, s1.Ztier
	res.add("ztier.hits", "count", d(z0.Hits, z1.Hits))
	res.add("ztier.seals", "count", d(z0.Seals, z1.Seals))
	res.add("ztier.ratio", "ratio", ratio(d(z0.RawBytes, z1.RawBytes), d(z0.CompressedBytes, z1.CompressedBytes)))
	res.add("ztier.overflow_writebacks", "count", d(z0.OverflowWritebacks, z1.OverflowWritebacks))

	h0, h1 := s0.Host, s1.Host
	res.add("remote.host.reads", "count", d(h0.Reads, h1.Reads))
	res.add("remote.host.writes", "count", d(h0.Writes, h1.Writes))
	res.add("remote.host.batch_calls", "count", d(h0.BatchCalls, h1.BatchCalls))
	res.add("remote.host.pages_per_batch", "ratio", ratio(d(h0.BatchedPages, h1.BatchedPages), d(h0.BatchCalls, h1.BatchCalls)))
	res.add("remote.host.coalesced_reads", "count", d(h0.CoalescedReads, h1.CoalescedReads))
	res.add("remote.host.dirty_reads", "count", d(h0.DirtyReads, h1.DirtyReads))
	res.add("remote.host.retries", "count", d(h0.Retries, h1.Retries))
	res.add("remote.host.failovers", "count", d(h0.Failovers, h1.Failovers))

	tr := r.summarizeSpans(ph)
	opNS := tr.opNS
	res.add("runtime.client_self_us_per_fault", "us", ratio(opNS-tr.callNS, faults)/1e3)
	res.add("remote.transport.calls_per_page", "ratio", float64(len(tr.calls))/n)
	res.add("remote.transport.call_p50_us", "us", quantile(tr.calls, 0.50)/1e3)
	res.add("remote.transport.call_p99_us", "us", quantile(tr.calls, 0.99)/1e3)
	res.add("remote.transport.wait_share", "ratio", ratio(tr.callNS, opNS))
	res.add("remote.transport.wire_us_per_call", "us", ratio(tr.callNS-tr.serviceNS, float64(len(tr.calls)))/1e3)
	res.add("remote.transport.bytes_out_per_call", "B", ratio(float64(ph.wire.BytesIn), float64(ph.wire.Requests)))
	res.add("remote.transport.bytes_in_per_call", "B", ratio(float64(ph.wire.BytesOut), float64(ph.wire.Requests)))
	res.add("remote.agent.service_p50_us", "us", quantile(tr.services, 0.50)/1e3)
	res.add("remote.agent.service_share", "ratio", ratio(tr.serviceNS, opNS))
	res.add("remote.agent.read_calls_per_request", "ratio", ratio(float64(ph.wire.ReadCalls), float64(ph.wire.Requests)))
	res.add("remote.agent.write_calls_per_response", "ratio", ratio(float64(ph.wire.WriteCalls), float64(ph.wire.Requests)))
	res.add("trace.sum_error_pct", "%", tr.sumErrorPct)
	res.add("trace.overhead_pct", "%", (1-ratio(ph.rate, ref.rate))*100)

	m0, m1 := &ph.mem[0], &ph.mem[1]
	res.add("process.alloc_bytes_per_page", "B", float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	res.add("process.allocs_per_page", "count", float64(m1.Mallocs-m0.Mallocs)/n)
	res.add("process.gc_cycles", "count", float64(m1.NumGC-m0.NumGC))
	res.add("process.gc_pause_ms", "ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	res.add("machine.calib_ms", "ms", calibMS)
	res.add("model.virtual_us_per_page", "us", float64(ph.virtual.Nanoseconds())/1e3/n)
	res.add("model.wall_over_virtual", "ratio", ratio(float64(ph.wall), float64(ph.virtual)))
}

// spanSummary is the traced phase's three span kinds reduced to totals.
// app.op is the root (one per sampled access), transport.call its child
// (one per round trip), agent.service the grandchild (one per request seen
// by the agent-side connection).
type spanSummary struct {
	opNS, callNS, serviceNS float64
	calls, services         []int64 // durations, sorted
	// sumErrorPct is how far client self + wire + agent service is from the
	// op time. A layer's self time is its span minus its children, so the
	// three sum to the op time exactly when every child lies inside its
	// parent: service spans are cut off at their call's ends, and what is
	// left over is the time of calls that lie inside no access, as a share
	// of the op time. With two goroutines a call counts as inside when
	// either goroutine's access contains it.
	sumErrorPct float64
}

// inAccess reports whether some sampled access of some worker spans
// [start, end]. A worker's accesses are in time order and do not overlap.
func inAccess(workers []*worker, start, end int64) bool {
	for _, w := range workers {
		i, found := slices.BinarySearch(w.start, start)
		if !found {
			i-- // the last access that began before start
		}
		if i >= 0 && end <= w.start[i]+w.lat[i] {
			return true
		}
	}
	return false
}

func (r *runner) summarizeSpans(ph *phase) spanSummary {
	var s spanSummary
	for _, v := range ph.lat {
		s.opNS += float64(v)
	}
	// A sampled access stands for sampleEvery of them.
	s.opNS *= float64(r.sp.sampleEvery)

	var outside float64
	for i, t := range r.cl.traced {
		turns := map[int64]netx.Turnaround{}
		for _, c := range r.cl.listeners[i].Conns() {
			for _, tn := range c.Turnarounds() {
				turns[tn.Seq] = tn
			}
		}
		for _, c := range t.Spans() {
			dur := c.End - c.Start
			s.calls = append(s.calls, dur)
			s.callNS += float64(dur)
			if !inAccess(r.workers, c.Start, c.End) {
				outside += float64(dur)
			}
			// agent.service is the part of the turnaround inside its call.
			// Both ends stamp the same clock, and the agent's last Write
			// can return after the host has already read the response (the
			// server goroutine is descheduled with its bytes delivered), so
			// a child span is cut off where its parent ends.
			if tn, ok := turns[c.Seq]; ok {
				svc := max(min(tn.End, c.End)-max(tn.Start, c.Start), 0)
				s.services = append(s.services, svc)
				s.serviceNS += float64(svc)
			}
		}
	}
	slices.Sort(s.calls)
	slices.Sort(s.services)
	s.sumErrorPct = ratio(outside, s.opNS) * 100
	return s
}
