// Package trace provides a compact binary format for page-access traces —
// capture a workload generator's stream to a file, inspect it, and replay
// it through the simulators. Traces make experiments portable: the exact
// access sequence behind a result can be archived and re-run, which is also
// how the paper's "trace-driven" reproduction band is exercised.
//
// Format: an 8-byte magic ("LEAPTRC1"), then one varint-encoded record per
// access: pid delta, page delta, think delta (all relative to the previous
// record, which makes typical traces ~3 bytes/record).
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"leap/internal/core"
	"leap/internal/prefetch"
	"leap/internal/sim"
	"leap/internal/workload"
)

// Magic identifies trace files.
var Magic = [8]byte{'L', 'E', 'A', 'P', 'T', 'R', 'C', '1'}

// Record is one trace entry.
type Record struct {
	PID   prefetch.PID
	Page  core.PageID
	Think sim.Duration
}

// Writer streams records to an io.Writer.
type Writer struct {
	w   *bufio.Writer
	buf [3 * binary.MaxVarintLen64]byte

	prevPID   int64
	prevPage  int64
	prevThink int64
	count     int64
	headerOut bool
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write appends one record.
func (tw *Writer) Write(r Record) error {
	if !tw.headerOut {
		if _, err := tw.w.Write(Magic[:]); err != nil {
			return fmt.Errorf("trace: write header: %w", err)
		}
		tw.headerOut = true
	}
	n := binary.PutVarint(tw.buf[:], int64(r.PID)-tw.prevPID)
	n += binary.PutVarint(tw.buf[n:], int64(r.Page)-tw.prevPage)
	n += binary.PutVarint(tw.buf[n:], int64(r.Think)-tw.prevThink)
	tw.prevPID, tw.prevPage, tw.prevThink = int64(r.PID), int64(r.Page), int64(r.Think)
	tw.count++
	if _, err := tw.w.Write(tw.buf[:n]); err != nil {
		return fmt.Errorf("trace: write record: %w", err)
	}
	return nil
}

// Count reports records written.
func (tw *Writer) Count() int64 { return tw.count }

// Flush drains buffered output. Call before closing the underlying file.
func (tw *Writer) Flush() error {
	if !tw.headerOut {
		// An empty trace still carries the magic.
		if _, err := tw.w.Write(Magic[:]); err != nil {
			return err
		}
		tw.headerOut = true
	}
	return tw.w.Flush()
}

// Reader streams records from an io.Reader.
type Reader struct {
	r         *bufio.Reader
	prevPID   int64
	prevPage  int64
	prevThink int64
	started   bool
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// Next returns the next record, or io.EOF at the end of the trace.
func (tr *Reader) Next() (Record, error) {
	if !tr.started {
		var magic [8]byte
		if _, err := io.ReadFull(tr.r, magic[:]); err != nil {
			return Record{}, fmt.Errorf("trace: read header: %w", err)
		}
		if magic != Magic {
			return Record{}, errors.New("trace: bad magic")
		}
		tr.started = true
	}
	dPID, err := binary.ReadVarint(tr.r)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("trace: read pid: %w", err)
	}
	dPage, err := binary.ReadVarint(tr.r)
	if err != nil {
		return Record{}, fmt.Errorf("trace: read page: %w", err)
	}
	dThink, err := binary.ReadVarint(tr.r)
	if err != nil {
		return Record{}, fmt.Errorf("trace: read think: %w", err)
	}
	tr.prevPID += dPID
	tr.prevPage += dPage
	tr.prevThink += dThink
	return Record{
		PID:   prefetch.PID(tr.prevPID),
		Page:  core.PageID(tr.prevPage),
		Think: sim.Duration(tr.prevThink),
	}, nil
}

// ReadAll slurps the full trace.
func ReadAll(r io.Reader) ([]Record, error) {
	tr := NewReader(r)
	var out []Record
	for {
		rec, err := tr.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// Capture records n accesses of gen under the given pid.
func Capture(w io.Writer, gen workload.Generator, pid prefetch.PID, n int64) error {
	tw := NewWriter(w)
	for i := int64(0); i < n; i++ {
		a := gen.Next()
		if err := tw.Write(Record{PID: pid, Page: a.Page, Think: a.Think}); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// Replay is a workload.Generator that replays a record slice, cycling at
// the end so simulations can run past the capture length.
type Replay struct {
	name    string
	records []Record
	pos     int
	pages   int64
	perOp   int
}

// NewReplay wraps records as a generator. perOp forwards AccessesPerOp.
func NewReplay(name string, records []Record, perOp int) (*Replay, error) {
	if len(records) == 0 {
		return nil, errors.New("trace: empty replay")
	}
	if perOp < 1 {
		perOp = 1
	}
	var maxPage core.PageID
	for _, r := range records {
		if r.Page > maxPage {
			maxPage = r.Page
		}
	}
	return &Replay{name: name, records: records, pages: int64(maxPage) + 1, perOp: perOp}, nil
}

// Name implements workload.Generator.
func (g *Replay) Name() string { return g.name }

// Pages implements workload.Generator.
func (g *Replay) Pages() int64 { return g.pages }

// AccessesPerOp implements workload.Generator.
func (g *Replay) AccessesPerOp() int { return g.perOp }

// Next implements workload.Generator.
func (g *Replay) Next() workload.Access {
	r := g.records[g.pos]
	g.pos = (g.pos + 1) % len(g.records)
	return workload.Access{Page: r.Page, Think: r.Think}
}
