package span

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"taps/internal/simtime"
)

// sampleTree builds a small forest exercising every exporter feature:
// a completed task, a rejected task with an attribution chain, a
// preempted task whose flow was killed mid-plan, and a link failure.
func sampleTree() *Tree {
	r := NewRecorder()
	r.TaskArrived(1, 0, 100)
	r.FlowArrived(10, 1, 0, 100, "h0->h1")
	r.Replan(ReplanSpan{Time: 0, Kind: ReplanArrival, Trigger: 1, Flows: 1, PathsTried: 2,
		Plans: []PlanSpan{{Flow: 10, Task: 1, Candidates: 2, PathIndex: 1,
			Path: []int32{3, 4}, Slices: []simtime.Interval{{Start: 0, End: 30}},
			Finish: 30, Deadline: 100}}})
	r.ImportSegments(10, []Segment{{Interval: simtime.Interval{Start: 0, End: 30}, Rate: 1e9}})
	r.FlowEnded(10, 30, true, true, "")
	r.TaskEnded(1, 30, OutcomeCompleted, "")

	r.TaskArrived(2, 5, 40)
	r.FlowArrived(20, 2, 5, 40, "h2->h3")
	r.Attribute(2, []LinkBlock{{Link: 3, Window: simtime.Interval{Start: 5, End: 40},
		Busy: 25, Holders: []Holder{{Task: 1, Busy: 25}}}})
	r.TaskEnded(2, 5, OutcomeRejected, "reject rule: keep incumbents")
	r.FlowEnded(20, 5, false, false, "rejected")

	r.TaskArrived(4, 10, 200)
	r.FlowArrived(40, 4, 10, 200, "h4->h5")
	r.Replan(ReplanSpan{Time: 10, Kind: ReplanArrival, Trigger: 4, Flows: 1, PathsTried: 1,
		Plans: []PlanSpan{{Flow: 40, Task: 4, Candidates: 1, PathIndex: 0,
			Path: []int32{7}, Slices: []simtime.Interval{{Start: 30, End: 90}},
			Finish: 90, Deadline: 200}}})
	r.PreemptedBy(4, 5)
	r.TaskEnded(4, 50, OutcomePreempted, "preempted")
	r.FlowEnded(40, 50, false, false, "preempted")

	r.LinkWentDown(4, 60)
	return r.Snapshot()
}

func TestWriteTraceEventsValidAndDeterministic(t *testing.T) {
	tree := sampleTree()
	var a, b bytes.Buffer
	if err := WriteTraceEvents(&a, tree, ExportOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := WriteTraceEvents(&b, tree, ExportOptions{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of the same tree differ")
	}

	var f struct {
		DisplayTimeUnit string       `json:"displayTimeUnit"`
		TraceEvents     []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &f); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}

	var taskSpans, flowSpans, linkSpans, revoked, instants int
	for _, ev := range f.TraceEvents {
		switch {
		case ev.Ph == "X" && ev.Pid == pidTasks:
			taskSpans++
		case ev.Ph == "X" && ev.Pid == pidFlows && ev.Name != "tx":
			flowSpans++
		case ev.Ph == "X" && ev.Pid == pidLinks:
			linkSpans++
			if strings.HasPrefix(ev.Name, "revoked ") {
				revoked++
			}
		case ev.Ph == "i":
			instants++
		}
		if ev.Ph == "X" && ev.Dur <= 0 {
			t.Errorf("complete event %q has non-positive dur %d", ev.Name, ev.Dur)
		}
	}
	if taskSpans != 3 || flowSpans != 3 {
		t.Fatalf("task/flow lifecycle spans = %d/%d, want 3/3", taskSpans, flowSpans)
	}
	// Flow 10's plan spans links 3 and 4; flow 40's plan spans link 7 and
	// is cut at the kill instant t=50, leaving a revoked tail [50,90).
	if linkSpans < 3 || revoked != 1 {
		t.Fatalf("link slice spans = %d (revoked %d), want >=3 with 1 revoked", linkSpans, revoked)
	}
	if instants == 0 {
		t.Fatal("no instant events (terminals, replans, link down)")
	}

	// The rejected task's terminal instant carries its attribution chain.
	found := false
	for _, ev := range f.TraceEvents {
		if ev.Ph == "i" && ev.Pid == pidTasks && ev.Tid == 2 && ev.Name == "rejected" {
			found = true
			if ev.Args["blocking"] == nil {
				t.Fatal("rejected terminal instant lacks blocking args")
			}
		}
	}
	if !found {
		t.Fatal("no rejected terminal instant for task 2")
	}
}

func TestLinkNameOption(t *testing.T) {
	tree := sampleTree()
	var buf bytes.Buffer
	err := WriteTraceEvents(&buf, tree, ExportOptions{
		LinkName: func(l int32) string {
			if l == 3 {
				return "tor0-agg0"
			}
			return "x"
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tor0-agg0") {
		t.Fatal("LinkName labels not applied to link tracks")
	}
}

func TestHorizonClosesOpenSpans(t *testing.T) {
	r := NewRecorder()
	r.TaskArrived(1, 0, 100)
	r.FlowArrived(10, 1, 0, 100, "")
	r.ImportSegments(10, []Segment{{Interval: simtime.Interval{Start: 0, End: 75}, Rate: 1e9}})
	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, r.Snapshot(), ExportOptions{}); err != nil {
		t.Fatal(err)
	}
	var f traceFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	for _, ev := range f.TraceEvents {
		if ev.Ph == "X" && ev.Pid == pidTasks && ev.Dur != 75 {
			t.Fatalf("open task span dur = %d, want horizon 75", ev.Dur)
		}
	}
}
