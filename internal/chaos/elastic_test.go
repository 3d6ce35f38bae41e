package chaos

import (
	"reflect"
	"strings"
	"testing"

	"leap/internal/sim"
)

// TestElasticLibrarySchedules runs every shipped elastic scenario and
// requires a clean report through each transition.
func TestElasticLibrarySchedules(t *testing.T) {
	for _, sched := range ElasticLibrary(Config{}.Horizon()) {
		c, err := New(Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run(sched)
		if err != nil {
			t.Fatalf("%s: %v", sched.Name, err)
		}
		if rep.Violations() != 0 {
			t.Errorf("%s: violations\n%s", sched.Name, rep)
		}
	}
}

// TestScaleDownMovesDataBeforePurge pins the drain ordering: after a
// scale-down event the victim holds no placements, every previously acked
// page still has live holders, and the report counts the transition.
func TestScaleDownMovesDataBeforePurge(t *testing.T) {
	sched := Schedule{Name: "drain-check", Events: []Event{
		{At: 2 * sim.Millisecond, Kind: ScaleDown, Agent: 2},
		{At: 3 * sim.Millisecond, Kind: Repair, Agent: -1},
	}}
	c, err := New(Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(sched)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations() != 0 || rep.ScaleDowns != 1 {
		t.Fatalf("drain run unclean:\n%s", rep)
	}
	for _, page := range c.written {
		for _, h := range c.model[page].holders {
			if h == 2 {
				t.Fatalf("page %d still acked on drained agent 2", page)
			}
		}
	}
	if got := c.host.RetiredAgents(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("RetiredAgents = %v, want [2]", got)
	}
}

// TestScaleDownBelowReplicasRejected: draining the cluster below the
// replication factor is a schedule error, not a silent data loss.
func TestScaleDownBelowReplicasRejected(t *testing.T) {
	sched := Schedule{Name: "over-drain", Events: []Event{
		{At: 1 * sim.Millisecond, Kind: ScaleDown, Agent: 0},
		{At: 2 * sim.Millisecond, Kind: ScaleDown, Agent: 1},
		{At: 3 * sim.Millisecond, Kind: ScaleDown, Agent: 2},
	}}
	c, err := New(Config{Agents: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(sched); err == nil ||
		!strings.Contains(err.Error(), "would leave") {
		t.Fatalf("over-drain accepted: %v", err)
	}
}

// TestScaleEventBeforeProvisionRejected: an event may not target an agent
// index whose scale-up has not happened yet.
func TestScaleEventBeforeProvisionRejected(t *testing.T) {
	sched := Schedule{Name: "premature", Events: []Event{
		{At: 1 * sim.Millisecond, Kind: Crash, Agent: 4},
		{At: 5 * sim.Millisecond, Kind: ScaleUp, Agent: -1},
	}}
	c, err := New(Config{Agents: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(sched); err == nil ||
		!strings.Contains(err.Error(), "targets agent") {
		t.Fatalf("premature reference accepted: %v", err)
	}
}

// FuzzScheduleParse fuzzes the schedule grammar: any input Parse accepts
// must survive a String→Parse round trip exactly — the property that makes
// a printed failing schedule a faithful reproduction. The seed corpus
// covers every verb, including the scale-event syntax added for elastic
// schedules (agentless scaleup, scaledown, slowramp with latency).
func FuzzScheduleParse(f *testing.F) {
	f.Add("5ms crash 0\n7ms restart 0\n8ms repair\n")
	f.Add("1ms partition 2\n2ms heal 2\n")
	f.Add("100µs slow 1 250µs\n900µs endslow 1\n")
	f.Add("3ms flaky 3 0.25\n5ms endflaky 3\n")
	f.Add("2ms scaleup\n4ms repair\n")
	f.Add("1ms scaledown 1\n2ms repair\n")
	f.Add("500µs slowramp 2 300µs\n6ms endslow 2\n")
	f.Add("# comment\n\n2ms scaleup # trailing\n9ms scaledown 4\n")
	f.Add("10ns crash 0\n15ns scaleup\n1s slowramp 0 123ns\n")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse("fuzz", text)
		if err != nil {
			return
		}
		again, err := Parse(s.Name, s.String())
		if err != nil {
			t.Fatalf("rendered schedule failed to re-parse: %v\n%s", err, s)
		}
		if !reflect.DeepEqual(s.Events, again.Events) {
			t.Fatalf("round trip diverged:\n%v\n%v", s.Events, again.Events)
		}
	})
}
