package experiments

import (
	"fmt"
	"strings"

	"leap/internal/chaos"
)

// resilience runs the remote-memory service of §4.4–4.5 under every shipped
// chaos schedule — agent crash/restart cycles, partitions, transient write
// failures, slow agents — with a background repair daemon, all on virtual
// time, so the figure is a pure function of (Scale, seed). The daemon runs
// a few rounds per run, so repair traffic interferes with the workload
// through the shared fabric queues; its period stays longer than the
// schedules' crash→repair windows, so the scheduled repair (not the daemon)
// is the first responder and the failover window stays observable.
func resilience(s Scale, seed uint64) []*chaos.Report {
	cfg := chaos.Config{Ops: int(s.Measured / 5), Pages: 256, Seed: seed}
	cfg.RepairEvery = cfg.Horizon() / 3
	var reps []*chaos.Report
	for _, sched := range chaos.Library(cfg.Horizon()) {
		c, err := chaos.New(cfg)
		if err != nil {
			panic(err)
		}
		rep, err := c.Run(sched)
		if err != nil {
			panic(err)
		}
		reps = append(reps, rep)
	}
	return reps
}

// schedule returns the report of the named schedule, or nil.
func schedule(reps []*chaos.Report, name string) *chaos.Report {
	for _, r := range reps {
		if r.Schedule == name {
			return r
		}
	}
	return nil
}

func renderResilience(s Scale, seed uint64) string {
	reps := resilience(s, seed)
	var b strings.Builder
	b.WriteString("Figure R — resilience: remote-memory service under scheduled faults (virtual time)\n")
	var rows [][]any
	var violations int64
	for _, r := range reps {
		rows = append(rows, []any{r.Schedule, r.Reads, r.Writes, r.ReadLatency.Percentile(50),
			r.ReadLatency.Percentile(99), r.FailoverReads, r.FailoverLatency.Percentile(99),
			r.RepairedSlabs, r.RepairTime, r.DegradedReads, r.Violations()})
		violations += r.Violations()
	}
	table(&b, "  ", []col{{"schedule", -16, ""}, {"reads", 6, ""}, {"writes", 6, ""}, {"read-p50", 10, ""},
		{"read-p99", 10, ""}, {"f/over", 6, ""}, {"f/over-p99", 12, ""}, {"repairs", 7, ""},
		{"rep-time", 10, ""}, {"degr", 6, ""}, {"viol", 5, ""}}, rows)
	// The failover latency CDF is the cost of detecting a dead primary and
	// retrying a replica.
	b.WriteString("  failover latency CDF (crash-restart):")
	if crash := schedule(reps, "crash-restart"); crash != nil {
		for _, p := range []float64{25, 50, 75, 90, 95, 99} {
			fmt.Fprintf(&b, "  p%g=%v", p, crash.FailoverLatency.Percentile(p))
		}
	}
	b.WriteString("\n  fault-tolerance overhead (read-p99 vs baseline):")
	base := schedule(reps, "baseline")
	for _, r := range reps {
		if r != base {
			fmt.Fprintf(&b, "  %s %.2f×", r.Schedule, ratio(r.ReadLatency.Percentile(99), base.ReadLatency.Percentile(99)))
		}
	}
	fmt.Fprintf(&b, "\n  (invariants: zero acked-write losses, replication factor restored after every repair window — total violations %d)\n",
		violations)
	return b.String()
}
