package experiments

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// figuresText renders every figure at (s, seed) the way leapbench prints
// them, without the wall-clock lines: the per-figure timings and the
// concurrency figure's "  measured" block.
func figuresText(s Scale, seed uint64) string {
	results, err := RunAll(Figures(), s, seed, 0)
	if err != nil {
		panic(err)
	}
	var b strings.Builder
	for _, r := range results {
		b.WriteString("== " + r.Name + " ==\n")
		for _, line := range strings.SplitAfter(r.Output+"\n", "\n") {
			if !strings.HasPrefix(line, "  measured") {
				b.WriteString(line)
			}
		}
	}
	return b.String()
}

// TestFiguresMatchGolden holds every figure to the bytes recorded on the
// commit before the remote datapath was folded into one engine. A change
// that is not meant to alter results must leave the golden alone; one that
// is regenerates it with `go test ./internal/experiments -run
// TestFiguresMatchGolden -update` and says so.
func TestFiguresMatchGolden(t *testing.T) {
	const path = "testdata/figures_small_seed1.golden"
	got := figuresText(Small, 1)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("figures diverged from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("figures diverged from %s: %d lines, want %d", path, len(gl), len(wl))
}
