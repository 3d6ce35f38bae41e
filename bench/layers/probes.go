package layers

import (
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"leap"
	"leap/bench/pageimg"
	"leap/internal/core"
	"leap/internal/pagecache"
	"leap/internal/pagemap"
	"leap/internal/prefetch"
	"leap/internal/remote"
	"leap/internal/sim"
	"leap/internal/ztier"
)

// Metric is one probe result.
type Metric struct {
	Name, Unit string
	Value      float64
}

// prober times the probes. dur is how long each timed probe runs; zero
// means one pass of its body, for the smoke test.
type prober struct {
	dur time.Duration
	out []Metric
	// rng draws probe inputs. Its seed is fixed, not the workload's, so that
	// a probe's number depends only on the code it times.
	rng *sim.RNG
}

func (p *prober) add(name, unit string, v float64) {
	p.out = append(p.out, Metric{Name: name, Unit: unit, Value: v})
}

func (p *prober) next() uint64 { return p.rng.Uint64() }

// nsPer runs body, which performs n operations per call, until dur has
// passed (after one untimed call to warm caches and pools) and reports
// nanoseconds per operation.
func (p *prober) nsPer(n int, body func()) float64 {
	if p.dur > 0 {
		body()
	}
	start := time.Now()
	ops := 0
	for {
		body()
		ops += n
		if el := time.Since(start); el >= p.dur {
			return float64(el.Nanoseconds()) / float64(ops)
		}
	}
}

// pages returns n page images, page ids from first.
func pages(first, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, pageimg.PageSize)
		pageimg.FillPage(out[i], int64(first+i))
	}
	return out
}

// RunProbes runs every stand-alone layer probe for about dur each (one pass
// each when dur is zero) and returns their metrics.
func RunProbes(dur time.Duration) ([]Metric, error) {
	p := &prober{dur: dur, rng: sim.NewRNG(1)}
	p.pagemapProbes()
	p.pagecacheProbe()
	p.predictorProbes()
	if err := p.ztierProbes(); err != nil {
		return nil, err
	}
	if err := p.codecProbes(); err != nil {
		return nil, err
	}
	if err := p.agentProbes(); err != nil {
		return nil, err
	}
	if err := p.hostProbes(); err != nil {
		return nil, err
	}
	if err := p.tcpProbes(); err != nil {
		return nil, err
	}
	if err := p.runtimeProbes(); err != nil {
		return nil, err
	}
	return p.out, nil
}

var sink int

func (p *prober) pagemapProbes() {
	const n = 1024
	m := pagemap.New[int](n)
	for i := 0; i < n; i++ {
		m.Put(core.PageID(i*7), i)
	}
	p.add("pagemap.get_ns", "ns", p.nsPer(n, func() {
		for i := 0; i < n; i++ {
			v, _ := m.Get(core.PageID(i * 7))
			sink += v
		}
	}))
	p.add("pagemap.put_delete_ns", "ns", p.nsPer(n, func() {
		for i := 0; i < n; i++ {
			k := core.PageID(100000 + i*3)
			m.Put(k, i)
			m.Delete(k)
		}
	}))
}

func (p *prober) pagecacheProbe() {
	const n = 1024
	c := pagecache.New(pagecache.Config{Capacity: n, Policy: pagecache.EvictEager})
	var now sim.Time
	// A prefetched page inserted and then consumed: under the eager policy
	// the lookup frees the entry, so the cache stays empty and the pair is
	// the whole per-page cost of the prefetch cache.
	p.add("pagecache.insert_lookup_ns", "ns", p.nsPer(n, func() {
		for i := 0; i < n; i++ {
			now++
			c.Insert(core.PageID(i), true, now)
			hit, _ := c.Lookup(core.PageID(i), now)
			if hit {
				sink++
			}
		}
	}))
}

func (p *prober) predictorProbes() {
	const n = 1024
	dst := make([]core.PageID, 0, 64)
	pred := core.NewPredictor(core.Config{})
	var addr core.PageID
	// Sequential faults: the trend is found on every call (seq_read's case).
	p.add("core.predictor_fault_ns", "ns", p.nsPer(n, func() {
		for i := 0; i < n; i++ {
			addr++
			dst = pred.OnFault(addr, dst[:0])
		}
	}))
	// Random faults: the full history is searched and nothing is issued —
	// the cost rand_read pays on every access and never gets back.
	lp := prefetch.NewLeap(core.Config{})
	p.add("prefetch.leap_on_access_ns", "ns", p.nsPer(n, func() {
		for i := 0; i < n; i++ {
			dst = lp.OnAccess(1, core.PageID(p.next()%16384), true, dst[:0])
		}
	}))
	en, err := prefetch.NewEnsemble(prefetch.EnsembleConfig{})
	if err != nil {
		// The zero config is the documented default; failing here is a
		// library bug, not an input error.
		panic(err)
	}
	p.add("prefetch.ensemble_on_access_ns", "ns", p.nsPer(n, func() {
		for i := 0; i < n; i++ {
			dst = en.OnAccess(1, core.PageID(p.next()%16384), true, dst[:0])
		}
	}))
}

func (p *prober) ztierProbes() error {
	const n = 64
	raw := pages(0, n)
	var comp ztier.Compressor
	enc := make([][]byte, n)
	for i := range enc {
		enc[i] = comp.Compress(nil, raw[i])
	}
	buf := make([]byte, 0, ztier.MaxEncodedLen(pageimg.PageSize))
	mbPerS := func(nsPerPage float64) float64 { return pageimg.PageSize / nsPerPage * 1e3 }
	p.add("ztier.compress_mb_s", "MB/s", mbPerS(p.nsPer(n, func() {
		for i := 0; i < n; i++ {
			buf = comp.Compress(buf[:0], raw[i])
		}
	})))
	var derr error
	out := make([]byte, 0, pageimg.PageSize)
	p.add("ztier.decompress_mb_s", "MB/s", mbPerS(p.nsPer(n, func() {
		for i := 0; i < n; i++ {
			var err error
			out, err = ztier.Decompress(out[:0], enc[i], pageimg.PageSize)
			if err != nil {
				derr = err
			}
		}
	})))
	if derr != nil {
		return fmt.Errorf("ztier decompress probe: %w", derr)
	}
	if !bytes.Equal(out, raw[n-1]) {
		return fmt.Errorf("ztier probe: page did not survive the codec")
	}
	pool := ztier.NewPool(1<<20, pageimg.PageSize)
	p.add("ztier.pool_put_take_us", "us", p.nsPer(n, func() {
		for i := 0; i < n; i++ {
			pool.Put(core.PageID(i), raw[i], true)
			out, _, _ = pool.Take(core.PageID(i), out[:0])
		}
	})/1e3)
	return nil
}

// countingWriter counts Write calls: each is a syscall on a socket.
type countingWriter struct{ calls int }

func (w *countingWriter) Write(b []byte) (int, error) { w.calls++; return len(b), nil }

// batchFrames builds the 8-page frames the default queue depth puts on the
// wire: slab 1, pages 0..7.
func batchFrames() (refs []remote.BatchRef, imgs [][]byte) {
	imgs = pages(0, 8)
	refs = make([]remote.BatchRef, 8)
	for i := range refs {
		refs[i] = remote.BatchRef{Slab: 1, PageOff: uint32(i)}
	}
	return refs, imgs
}

func (p *prober) codecProbes() error {
	refs, imgs := batchFrames()
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	p.add("remote.codec.encode_read_batch_ns", "ns", p.nsPer(16, func() {
		for i := 0; i < 16; i++ {
			_, err := remote.EncodeReadBatch(refs)
			note(err)
		}
	}))
	results := make([]remote.BatchReadResult, len(imgs))
	for i := range results {
		results[i] = remote.BatchReadResult{Status: remote.StatusOK, Page: imgs[i]}
	}
	readResp, err := remote.EncodeReadBatchResponse(results)
	if err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	p.add("remote.codec.decode_read_resp_ns", "ns", p.nsPer(16, func() {
		for i := 0; i < 16; i++ {
			_, err := remote.DecodeReadBatchResponse(readResp)
			note(err)
		}
	}))
	var writeReq *remote.Request
	p.add("remote.codec.encode_write_batch_ns", "ns", p.nsPer(16, func() {
		for i := 0; i < 16; i++ {
			writeReq, err = remote.EncodeWriteBatch(refs, imgs)
			note(err)
		}
	}))
	p.add("remote.codec.decode_write_batch_ns", "ns", p.nsPer(16, func() {
		for i := 0; i < 16; i++ {
			_, _, err := remote.DecodeWriteBatch(writeReq)
			note(err)
		}
	}))
	var comp ztier.Compressor
	p.add("remote.codec.encode_write_batch_compressed_ns", "ns", p.nsPer(4, func() {
		for i := 0; i < 4; i++ {
			_, err := remote.EncodeWriteBatchCompressed(refs, imgs, &comp)
			note(err)
		}
	}))

	// One 8-page write-batch request framed onto a stream and read back: the
	// allocations a frame costs the two ends of a connection, and the Write
	// calls (syscalls, on a socket) the sender makes for it.
	const rounds = 64
	var buf bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		buf.Reset()
		note(remote.EncodeRequest(&buf, writeReq))
		_, err := remote.DecodeRequest(&buf)
		note(err)
	}
	runtime.ReadMemStats(&after)
	p.add("remote.codec.frame_allocs", "count", float64(after.Mallocs-before.Mallocs)/rounds)
	p.add("remote.codec.frame_alloc_bytes", "B", float64(after.TotalAlloc-before.TotalAlloc)/rounds)
	var cw countingWriter
	note(remote.EncodeRequest(&cw, writeReq))
	p.add("remote.codec.writes_per_request", "count", float64(cw.calls))
	if firstErr != nil {
		return fmt.Errorf("codec probe: %w", firstErr)
	}
	return nil
}

// loadedAgent returns an agent with slab 1 mapped and pages 0..7 written,
// plus the read-batch and write-batch requests for those pages.
func loadedAgent() (*remote.Agent, *remote.Request, *remote.Request, error) {
	refs, imgs := batchFrames()
	a := remote.NewAgent(1024, 0)
	if st := a.Handle(&remote.Request{Op: remote.OpMapSlab, Slab: 1}).Status; st != remote.StatusOK {
		return nil, nil, nil, fmt.Errorf("agent probe: map slab: status %d", st)
	}
	writeReq, err := remote.EncodeWriteBatch(refs, imgs)
	if err != nil {
		return nil, nil, nil, err
	}
	if st := a.Handle(writeReq).Status; st != remote.StatusOK {
		return nil, nil, nil, fmt.Errorf("agent probe: write batch: status %d", st)
	}
	readReq, err := remote.EncodeReadBatch(refs)
	if err != nil {
		return nil, nil, nil, err
	}
	return a, readReq, writeReq, nil
}

func (p *prober) agentProbes() error {
	a, readReq, writeReq, err := loadedAgent()
	if err != nil {
		return err
	}
	bad := 0
	handle := func(req *remote.Request) func() {
		return func() {
			for i := 0; i < 16; i++ {
				if a.Handle(req).Status != remote.StatusOK {
					bad++
				}
			}
		}
	}
	p.add("remote.agent.handle_read8_us", "us", p.nsPer(16, handle(readReq))/1e3)
	p.add("remote.agent.handle_write8_us", "us", p.nsPer(16, handle(writeReq))/1e3)
	if bad > 0 {
		return fmt.Errorf("agent probe: %d requests refused", bad)
	}
	return nil
}

func (p *prober) hostProbes() error {
	const n = 2048
	trs := []remote.Transport{
		remote.NewInProc(remote.NewAgent(1024, 0)),
		remote.NewInProc(remote.NewAgent(1024, 0)),
	}
	h, err := remote.NewHost(remote.HostConfig{SlabPages: 1024, Replicas: 2, QueueDepth: 8, Seed: 1}, trs)
	if err != nil {
		return fmt.Errorf("host probe: %w", err)
	}
	defer h.Close()
	imgs := pages(0, 8)
	for pg := 0; pg < n; pg++ {
		h.WritePageAsync(core.PageID(pg), imgs[pg%8])
		if pg%8 == 7 {
			if err := h.Flush(); err != nil {
				return fmt.Errorf("host probe: populate: %w", err)
			}
		}
	}
	var firstErr error
	buf := make([]byte, pageimg.PageSize)
	p.add("remote.host.inproc_read_sync_us", "us", p.nsPer(64, func() {
		for i := 0; i < 64; i++ {
			if err := h.ReadPage(core.PageID(p.next()%n), buf); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	})/1e3)
	bufs := pages(0, 8)
	tickets := make([]*remote.Ticket, 8)
	base := 0
	p.add("remote.host.inproc_read8_async_us_per_page", "us", p.nsPer(64, func() {
		for i := 0; i < 8; i++ {
			for j := range tickets {
				tickets[j] = h.ReadPageAsync(core.PageID(base+j), bufs[j])
			}
			err := h.Flush()
			for _, t := range tickets {
				if terr := t.Err(); terr != nil && err == nil {
					err = terr
				}
			}
			if err != nil && firstErr == nil {
				firstErr = err
			}
			base = (base + 8) % n
		}
	})/1e3)
	p.add("remote.host.inproc_write8_async_us_per_page", "us", p.nsPer(64, func() {
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				h.WritePageAsync(core.PageID(base+j), imgs[j])
			}
			if err := h.Flush(); err != nil && firstErr == nil {
				firstErr = err
			}
			base = (base + 8) % n
		}
	})/1e3)
	if firstErr != nil {
		return fmt.Errorf("host probe: %w", firstErr)
	}
	return nil
}

func (p *prober) tcpProbes() error {
	a, readReq8, _, err := loadedAgent()
	if err != nil {
		return err
	}
	readReq1, err := remote.EncodeReadBatch([]remote.BatchRef{{Slab: 1, PageOff: 0}})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("tcp probe: %w", err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = a.Serve(l) // returns the accept error once l is closed
	}()
	tr, err := remote.DialTCP(l.Addr().String())
	if err != nil {
		l.Close()
		<-served
		return fmt.Errorf("tcp probe: %w", err)
	}
	var firstErr error
	rtt := func(req *remote.Request) func() {
		return func() {
			for i := 0; i < 16; i++ {
				resp, err := tr.Call(req)
				if err == nil && resp.Status != remote.StatusOK {
					err = fmt.Errorf("status %d", resp.Status)
				}
				if err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	p.add("remote.transport.tcp_rtt_read1_us", "us", p.nsPer(16, rtt(readReq1))/1e3)
	p.add("remote.transport.tcp_rtt_read8_us", "us", p.nsPer(16, rtt(readReq8))/1e3)
	tr.Close()
	l.Close()
	<-served
	if firstErr != nil {
		return fmt.Errorf("tcp probe: %w", firstErr)
	}
	return nil
}

// inprocMemory opens a Memory over two in-process agents — the standard
// cluster with the wire taken out — and writes the first n page images.
func inprocMemory(n int, opts ...leap.Option) (*leap.Memory, *leap.RemoteHost, error) {
	trs := []leap.RemoteTransport{
		leap.NewInProcTransport(leap.NewRemoteAgent(1024, 0)),
		leap.NewInProcTransport(leap.NewRemoteAgent(1024, 0)),
	}
	h, err := leap.NewRemoteHost(leap.RemoteHostConfig{SlabPages: 1024, Replicas: 2, QueueDepth: 8, Seed: 1}, trs)
	if err != nil {
		return nil, nil, err
	}
	opts = append([]leap.Option{leap.WithRemoteHost(h), leap.WithCacheCapacity(1024), leap.WithQueueDepth(8), leap.WithSeed(1)}, opts...)
	m, err := leap.Open(opts...)
	if err != nil {
		h.Close()
		return nil, nil, err
	}
	img := make([]byte, pageimg.PageSize)
	for pg := 0; pg < n; pg++ {
		pageimg.FillPage(img, int64(pg))
		if _, err := m.WriteAt(img, int64(pg)*pageimg.PageSize); err != nil {
			m.Close()
			h.Close()
			return nil, nil, err
		}
	}
	if err := m.Flush(); err != nil {
		m.Close()
		h.Close()
		return nil, nil, err
	}
	return m, h, nil
}

func (p *prober) runtimeProbes() error {
	var firstErr error
	get := func(m *leap.Memory, pg int64) {
		b, err := m.Get(leap.PageID(pg))
		if err != nil && firstErr == nil {
			firstErr = err
		}
		sink += len(b)
	}

	// Resident hits, one goroutine: 256 pages inside a 1024-page budget.
	m, h, err := inprocMemory(256)
	if err != nil {
		return fmt.Errorf("runtime probe: %w", err)
	}
	p.add("runtime.get_hit_ns", "ns", p.nsPer(256, func() {
		for pg := int64(0); pg < 256; pg++ {
			get(m, pg)
		}
	}))
	m.Close()
	h.Close()

	// Resident hits, two goroutines on two stripes, each over its own 256
	// pages: nanoseconds per Get as each goroutine sees them.
	m, h, err = inprocMemory(512, leap.WithShards(2))
	if err != nil {
		return fmt.Errorf("runtime probe: %w", err)
	}
	perG := make([]float64, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := range perG {
		wg.Add(1)
		go func() {
			defer wg.Done()
			solo := &prober{dur: p.dur}
			first := int64(g) * 256
			perG[g] = solo.nsPer(256, func() {
				for pg := first; pg < first+256; pg++ {
					b, err := m.Get(leap.PageID(pg))
					if err != nil && errs[g] == nil {
						errs[g] = err
					}
					if len(b) != pageimg.PageSize && errs[g] == nil {
						errs[g] = fmt.Errorf("Get(%d) returned %d bytes", pg, len(b))
					}
				}
			})
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	p.add("runtime.get_hit_2g_ns", "ns", (perG[0]+perG[1])/2)
	m.Close()
	h.Close()

	// Faults with the wire taken out: the fault path's own CPU.
	const n = 16384
	m, h, err = inprocMemory(n)
	if err != nil {
		return fmt.Errorf("runtime probe: %w", err)
	}
	defer h.Close()
	defer m.Close()
	p.add("runtime.fault_inproc_us", "us", p.nsPer(256, func() {
		for i := 0; i < 256; i++ {
			get(m, int64(p.next()%n))
		}
	})/1e3)
	pos := int64(0)
	p.add("runtime.fault_seq_inproc_us", "us", p.nsPer(256, func() {
		for i := 0; i < 256; i++ {
			get(m, pos)
			pos = (pos + 1) % n
		}
	})/1e3)
	if firstErr != nil {
		return fmt.Errorf("runtime probe: %w", firstErr)
	}
	return nil
}
