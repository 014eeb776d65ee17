package trace_test

import (
	"strings"
	"testing"

	"taps/internal/core"
	"taps/internal/obs/span"
	"taps/internal/sched/fairshare"
	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
	"taps/internal/trace"
)

func runTraced(t *testing.T, s sim.Scheduler, specs []sim.TaskSpec) *sim.Result {
	t.Helper()
	g := topology.NewGraph()
	sw := g.AddNode(topology.ToR, "s", 1, 0)
	a := g.AddNode(topology.Host, "a", 0, 0)
	b := g.AddNode(topology.Host, "b", 0, 0)
	g.AddDuplex(a, sw, 1e6)
	g.AddDuplex(b, sw, 1e6)
	eng := sim.New(g, topology.NewBFSRouting(g), s, specs, sim.Config{
		Validate: true, RecordSegments: true, MaxTime: simtime.Time(1e10),
	})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func specsAB() []sim.TaskSpec {
	// Node IDs are deterministic: a=1, b=2.
	return []sim.TaskSpec{
		{Arrival: 0, Deadline: 10 * simtime.Millisecond, Flows: []sim.FlowSpec{
			{Src: 1, Dst: 2, Size: 2000},
			{Src: 1, Dst: 2, Size: 3000},
		}},
	}
}

func TestSegmentsRecorded(t *testing.T) {
	res := runTraced(t, core.New(core.DefaultConfig()), specsAB())
	if res.Segments == nil {
		t.Fatal("no segments recorded")
	}
	// TAPS serializes: flow 0 [0,2ms) at line rate, flow 1 [2,5ms).
	s0 := res.Segments[0]
	if len(s0) != 1 || s0[0].Interval != (simtime.Interval{Start: 0, End: 2000}) {
		t.Fatalf("flow 0 segments = %+v", s0)
	}
	if s0[0].Rate != 1e6 {
		t.Fatalf("flow 0 rate = %g", s0[0].Rate)
	}
	s1 := res.Segments[1]
	if len(s1) != 1 || s1[0].Interval != (simtime.Interval{Start: 2000, End: 5000}) {
		t.Fatalf("flow 1 segments = %+v", s1)
	}
}

func TestSegmentsCoalesced(t *testing.T) {
	// Fair sharing holds a constant rate across many engine events; the
	// recorded segments must be coalesced, not one per event.
	res := runTraced(t, fairshare.New(), specsAB())
	for id, segs := range res.Segments {
		if len(segs) > 3 {
			t.Fatalf("flow %d has %d segments; coalescing broken: %+v", id, len(segs), segs)
		}
	}
}

func TestGanttRendering(t *testing.T) {
	res := runTraced(t, core.New(core.DefaultConfig()), specsAB())
	out := trace.Gantt(res, trace.Options{Width: 40})
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// header + 2 flows + legend
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "#") {
		t.Fatalf("flow 0 row missing transmission marks: %q", lines[1])
	}
	if !strings.Contains(out, "$") {
		t.Fatal("on-time completion marker missing")
	}
	if !strings.Contains(out, "|") {
		t.Fatal("deadline marker missing")
	}
}

func TestGanttPartialRateDigits(t *testing.T) {
	res := runTraced(t, fairshare.New(), specsAB())
	out := trace.Gantt(res, trace.Options{Width: 40, LineRate: 1e6})
	// Two flows share the link at 1/2 line rate -> digit '5' appears.
	if !strings.Contains(out, "5") {
		t.Fatalf("expected half-rate digit in:\n%s", out)
	}
}

func TestGanttKilledFlowMarker(t *testing.T) {
	specs := []sim.TaskSpec{{Arrival: 0, Deadline: 1 * simtime.Millisecond,
		Flows: []sim.FlowSpec{{Src: 1, Dst: 2, Size: 50000}}}}
	res := runTraced(t, core.New(core.DefaultConfig()), specs)
	out := trace.Gantt(res, trace.Options{Width: 30})
	if !strings.Contains(out, "x") {
		t.Fatalf("killed marker missing:\n%s", out)
	}
}

// tapsRun runs TAPS on a two-host star, with segments recorded, for the
// span-enriched rendering tests to overlay a span tree on.
func tapsRun(t *testing.T, specs []sim.TaskSpec) *sim.Result {
	t.Helper()
	g := topology.NewGraph()
	sw := g.AddNode(topology.ToR, "s", 1, 0)
	a := g.AddNode(topology.Host, "a", 0, 0)
	b := g.AddNode(topology.Host, "b", 0, 0)
	g.AddDuplex(a, sw, 1e6)
	g.AddDuplex(b, sw, 1e6)
	eng := sim.New(g, topology.NewBFSRouting(g), core.New(core.DefaultConfig()), specs, sim.Config{
		Validate: true, RecordSegments: true, MaxTime: simtime.Time(1e10),
	})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGanttPreemptionMarks checks the span-enriched chart for a preempted
// task: its killed flow ends in 'P' instead of the generic 'x', and slice
// windows that were granted and then torn down render as '~'. The §IV-B
// fraction comparison makes organic mid-flight preemption all but
// impossible (a newcomer's completion fraction is always 0 and ties keep
// the incumbent — see core's reject-rule tests), so the span tree is built
// by hand over a real run whose flow genuinely ends in FlowKilled, pinning
// the renderer rather than the scheduler branch.
func TestGanttPreemptionMarks(t *testing.T) {
	// Infeasible task: 50 ms of work against a 1 ms deadline. TAPS rejects
	// it at arrival and the engine kills flow 0 at t=0 (FlowKilled).
	specs := []sim.TaskSpec{{Arrival: 0, Deadline: 1 * simtime.Millisecond,
		Flows: []sim.FlowSpec{{Src: 1, Dst: 2, Size: 50_000}}}}
	res := tapsRun(t, specs)
	if res.Flows[0].State != sim.FlowKilled {
		t.Fatalf("flow 0 state = %v, want killed", res.Flows[0].State)
	}

	// Span overlay: the task was granted [200,800) µs, then preempted for
	// task 1 and killed at t=0, revoking the whole window.
	tree := &span.Tree{
		Tasks: []span.TaskSpan{{Task: 0, Deadline: simtime.Millisecond, Outcome: span.OutcomePreempted,
			Reason: "preempted by task 1", PreemptedBy: 1, Flows: []int64{0}}},
		Flows: []span.FlowSpan{{Flow: 0, Task: 0, Label: "a->b", Deadline: simtime.Millisecond,
			Ended: true, Note: "preempted by task 1"}},
		Replans: []span.ReplanSpan{{Seq: 1, Committed: true, Kind: span.ReplanArrival, Trigger: 0,
			Plans: []span.PlanSpan{{Flow: 0, Task: 0, Path: []int32{0},
				Slices: []simtime.Interval{{Start: 200, End: 800}}}}}},
	}
	if got := tree.RevokedByFlow()[0]; len(got) != 1 ||
		got[0] != (simtime.Interval{Start: 200, End: 800}) {
		t.Fatalf("revoked windows = %v", got)
	}

	out := trace.Gantt(res, trace.Options{Width: 60, Spans: tree})
	// The header names the scheduler ("TAPS"), so scope mark checks to the
	// flow's row.
	row := strings.Split(out, "\n")[1]
	if !strings.Contains(row, "P") {
		t.Fatalf("preempted kill not marked 'P':\n%s", out)
	}
	if !strings.Contains(row, "~") {
		t.Fatalf("revoked windows not marked '~':\n%s", out)
	}
	if strings.Contains(row, "x") {
		t.Fatalf("preempted flow still carries the generic kill mark:\n%s", out)
	}
	if !strings.Contains(out, "preemption") {
		t.Fatal("legend lacks span marks")
	}
	// Without span data the same run renders the generic kill mark.
	plainRow := strings.Split(trace.Gantt(res, trace.Options{Width: 60}), "\n")[1]
	if strings.Contains(plainRow, "P") || strings.Contains(plainRow, "~") {
		t.Fatalf("span marks leaked into span-less rendering:\n%s", plainRow)
	}
	if !strings.Contains(plainRow, "x") {
		t.Fatalf("span-less rendering lost the kill mark:\n%s", plainRow)
	}
}

// TestGanttZeroDurationWindow pins the renderer against degenerate span
// data: zero-duration granted windows (Start == End) must render nothing
// rather than a stray mark or a panic.
func TestGanttZeroDurationWindow(t *testing.T) {
	res := tapsRun(t, specsAB())
	tree := &span.Tree{
		Tasks: []span.TaskSpan{{Task: 0, Deadline: 10 * simtime.Millisecond, PreemptedBy: span.NoTask, Flows: []int64{0}}},
		Flows: []span.FlowSpan{{Flow: 0, Task: 0, Label: "a->b", Deadline: 10 * simtime.Millisecond}},
		Replans: []span.ReplanSpan{
			{Seq: 1, Committed: true, Kind: span.ReplanArrival, Trigger: 0,
				Plans: []span.PlanSpan{{Flow: 0, Task: 0, Path: []int32{0},
					Slices: []simtime.Interval{
						{Start: 1000, End: 1000}, // zero-duration grant
						{Start: 2000, End: 4000},
					}}}},
			// Supersede immediately at t=0: every non-empty window is revoked.
			{Seq: 2, Committed: true, Kind: span.ReplanArrival, Trigger: 0,
				Plans: []span.PlanSpan{{Flow: 0, Task: 0, Path: []int32{0},
					Slices: []simtime.Interval{{Start: 5000, End: 5000}}}}},
		},
	}
	out := trace.Gantt(res, trace.Options{Width: 40, Spans: tree})
	if !strings.Contains(out, "~") {
		t.Fatalf("revoked non-empty window missing:\n%s", out)
	}
	// The zero-duration grants contribute no marks: only [2000,4000) is
	// revoked, so '~' appears in flow 0's row but never at t=5000's
	// column beyond the flow's life.
	if got := tree.RevokedByFlow()[0]; len(got) != 1 ||
		got[0] != (simtime.Interval{Start: 2000, End: 4000}) {
		t.Fatalf("revoked windows = %v", got)
	}
}
