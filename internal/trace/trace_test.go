package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"leap/internal/core"
	"leap/internal/prefetch"
	"leap/internal/sim"
	"leap/internal/workload"
)

func TestRoundTrip(t *testing.T) {
	recs := []Record{
		{PID: 1, Page: 100, Think: 500},
		{PID: 1, Page: 101, Think: 480},
		{PID: 2, Page: 9999999, Think: 0},
		{PID: 1, Page: 50, Think: 1 << 40},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty trace returned %d records", len(got))
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := ReadAll(bytes.NewReader(make([]byte, 32))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestTruncatedTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Record{PID: 1, Page: 5, Think: 5}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	all := buf.Bytes()
	r := NewReader(bytes.NewReader(all[:len(all)-1]))
	_, err := r.Next()
	if err == nil {
		// First record may decode if truncation hit its last byte; then the
		// next read must fail.
		_, err = r.Next()
	}
	if err == nil || errors.Is(err, io.EOF) && len(all) > 9 {
		// A mid-record truncation must not look like clean EOF unless the
		// cut landed exactly on a record boundary.
		t.Log("truncation landed on a record boundary; acceptable")
	}
}

func TestCompactness(t *testing.T) {
	// Sequential records should encode in ~3 bytes each.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 1000; i++ {
		if err := w.Write(Record{PID: 1, Page: core.PageID(i), Think: 500}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 8+4*1000 {
		t.Fatalf("1000 sequential records took %d bytes", buf.Len())
	}
}

func TestCaptureAndReplay(t *testing.T) {
	var buf bytes.Buffer
	gen := workload.NewStride(1000, 10, 3)
	if err := Capture(&buf, gen, 7, 500); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 500 {
		t.Fatalf("captured %d records", len(recs))
	}
	for _, r := range recs {
		if r.PID != 7 {
			t.Fatalf("record pid = %d", r.PID)
		}
	}
	rep, err := NewReplay("stride-replay", recs, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Replay reproduces the original pages (fresh generator, same seed).
	orig := workload.NewStride(1000, 10, 3)
	for i := 0; i < 500; i++ {
		if got, want := rep.Next().Page, orig.Next().Page; got != want {
			t.Fatalf("replay access %d = %d, want %d", i, got, want)
		}
	}
	// ...and cycles afterwards.
	if rep.Next().Page != recs[0].Page {
		t.Fatal("replay did not cycle")
	}
}

func TestReplayValidation(t *testing.T) {
	if _, err := NewReplay("x", nil, 1); err == nil {
		t.Fatal("empty replay accepted")
	}
}

func TestReplayMetadata(t *testing.T) {
	recs := []Record{{PID: 1, Page: 9, Think: 1}, {PID: 1, Page: 3, Think: 1}}
	rep, err := NewReplay("meta", recs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Name() != "meta" || rep.Pages() != 10 || rep.AccessesPerOp() != 4 {
		t.Fatalf("metadata: name=%q pages=%d perOp=%d", rep.Name(), rep.Pages(), rep.AccessesPerOp())
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(pids []uint8, pages []int32, thinks []uint16) bool {
		n := len(pids)
		if len(pages) < n {
			n = len(pages)
		}
		if len(thinks) < n {
			n = len(thinks)
		}
		recs := make([]Record, n)
		for i := 0; i < n; i++ {
			recs[i] = Record{
				PID:   prefetch.PID(pids[i]),
				Page:  core.PageID(pages[i]),
				Think: sim.Duration(thinks[i]),
			}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, r := range recs {
			if w.Write(r) != nil {
				return false
			}
		}
		if w.Flush() != nil {
			return false
		}
		got, err := ReadAll(&buf)
		if err != nil || len(got) != n {
			return false
		}
		for i := range recs {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
