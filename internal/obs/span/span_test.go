package span

import (
	"reflect"
	"testing"

	"taps/internal/simtime"
)

func iv(s, e simtime.Time) simtime.Interval { return simtime.Interval{Start: s, End: e} }

func TestNilRecorderNoops(t *testing.T) {
	var r *Recorder
	if n := testing.AllocsPerRun(100, func() {
		r.TaskArrived(1, 0, 100)
		r.FlowArrived(2, 1, 0, 100, "a->b")
		r.Replan(ReplanSpan{})
		r.TaskEnded(1, 50, OutcomeRejected, "x")
		r.PreemptedBy(1, 2)
		r.Attribute(1, nil)
		r.FlowEnded(2, 50, false, false, "x")
		r.ImportSegments(2, nil)
		r.LinkWentDown(3, 10)
	}); n != 0 {
		t.Fatalf("nil recorder allocates: %v allocs/op", n)
	}
	tree := r.Snapshot()
	if len(tree.Tasks) != 0 || len(tree.Flows) != 0 || len(tree.Replans) != 0 {
		t.Fatal("nil recorder snapshot not empty")
	}
	if got := WhyText(tree, 7, nil); got == "" {
		t.Fatal("WhyText on empty tree should explain the absence")
	}
}

func TestRecorderLifecycle(t *testing.T) {
	r := NewRecorder()
	r.TaskArrived(3, 10, 100)
	r.FlowArrived(7, 3, 10, 100, "h1->h2")
	r.Replan(ReplanSpan{Time: 10, Kind: ReplanArrival, Trigger: 3, Flows: 1,
		Plans: []PlanSpan{{Flow: 7, Task: 3, Candidates: 2, PathIndex: 0,
			Path: []int32{4, 5}, Slices: []simtime.Interval{iv(10, 40)},
			Finish: 40, Deadline: 100}}})
	r.ImportSegments(7, []Segment{{Interval: iv(10, 40), Rate: 1e9}})
	r.FlowEnded(7, 40, true, true, "")
	r.TaskEnded(3, 40, OutcomeCompleted, "")
	r.LinkWentDown(4, 99)

	tree := r.Snapshot()
	if len(tree.Tasks) != 1 || len(tree.Flows) != 1 || len(tree.Replans) != 1 {
		t.Fatalf("snapshot sizes: %d tasks %d flows %d replans",
			len(tree.Tasks), len(tree.Flows), len(tree.Replans))
	}
	ts := tree.Task(3)
	if ts == nil || ts.Outcome != OutcomeCompleted || ts.End != 40 {
		t.Fatalf("task span: %+v", ts)
	}
	if !reflect.DeepEqual(ts.Flows, []int64{7}) {
		t.Fatalf("task flows: %v", ts.Flows)
	}
	fs := tree.Flow(7)
	if fs == nil || !fs.Done || !fs.OnTime || len(fs.Segments) != 1 {
		t.Fatalf("flow span: %+v", fs)
	}
	if fs.Segments[0].Interval != iv(10, 40) {
		t.Fatalf("imported segments: %+v", fs.Segments)
	}
	if tree.Replans[0].Seq != 1 {
		t.Fatalf("replan seq: %d", tree.Replans[0].Seq)
	}
	if len(tree.LinkDowns) != 1 || tree.LinkDowns[0].Link != 4 {
		t.Fatalf("link downs: %+v", tree.LinkDowns)
	}

	// The snapshot is a deep copy: mutating it must not leak back.
	ts.Flows[0] = 999
	tree.Replans[0].Plans[0].Path[0] = 99
	if got := r.Snapshot(); got.Task(3).Flows[0] != 7 || got.Replans[0].Plans[0].Path[0] != 4 {
		t.Fatal("snapshot shares memory with the recorder")
	}
}

func TestAttributionAndPreemption(t *testing.T) {
	r := NewRecorder()
	r.TaskArrived(1, 0, 50)
	r.TaskArrived(2, 10, 60)
	r.PreemptedBy(1, 2)
	r.TaskEnded(1, 10, OutcomePreempted, "preempted")
	r.Attribute(2, []LinkBlock{{Link: 9, Window: iv(10, 60), Busy: 30,
		Holders: []Holder{{Task: 1, Busy: 30}}}})
	r.TaskEnded(2, 10, OutcomeRejected, "reject rule")

	tree := r.Snapshot()
	if got := tree.Task(1); got.PreemptedBy != 2 || got.Outcome != OutcomePreempted {
		t.Fatalf("victim span: %+v", got)
	}
	blocks := tree.Task(2).Blocks
	if len(blocks) != 1 || blocks[0].Link != 9 || blocks[0].Holders[0].Task != 1 {
		t.Fatalf("attribution: %+v", blocks)
	}

	why := WhyText(tree, 2, func(l int32) string { return "agg0-core0" })
	for _, want := range []string{"REJECTED", "agg0-core0", "task 1", "blocking links"} {
		if !contains(why, want) {
			t.Errorf("WhyText missing %q:\n%s", want, why)
		}
	}
}

func TestRevokedWindows(t *testing.T) {
	r := NewRecorder()
	r.TaskArrived(1, 0, 100)
	r.FlowArrived(5, 1, 0, 100, "")
	// First plan grants [10,20) and [30,40); a second pass at t=15
	// re-plans the flow, revoking [15,20) and [30,40).
	r.Replan(ReplanSpan{Time: 0, Kind: ReplanArrival, Trigger: 1,
		Plans: []PlanSpan{{Flow: 5, Task: 1, Path: []int32{0},
			Slices: []simtime.Interval{iv(10, 20), iv(30, 40)}}}})
	r.Replan(ReplanSpan{Time: 15, Kind: ReplanArrival, Trigger: 2,
		Plans: []PlanSpan{{Flow: 5, Task: 1, Path: []int32{0},
			Slices: []simtime.Interval{iv(15, 25)}}}})
	tree := r.Snapshot()
	want := []simtime.Interval{iv(15, 20), iv(30, 40)}
	if got := tree.RevokedWindows(5); !reflect.DeepEqual(got, want) {
		t.Fatalf("revoked (superseded plan) = %v, want %v", got, want)
	}

	// A killed flow's final-plan slices past the kill instant are revoked
	// too: kill at t=18 revokes [18,25) of the second plan.
	r.FlowEnded(5, 18, false, false, "preempted")
	tree = r.Snapshot()
	want = []simtime.Interval{iv(15, 25), iv(30, 40)}
	if got := tree.RevokedWindows(5); !reflect.DeepEqual(got, want) {
		t.Fatalf("revoked (killed flow) = %v, want %v", got, want)
	}

	if got := tree.RevokedWindows(404); got != nil {
		t.Fatalf("unknown flow revoked = %v, want nil", got)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
