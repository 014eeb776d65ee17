package span

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"taps/internal/simtime"
)

// sampleTree is a small forest exercising every exporter feature, as a
// replay of its records would build it: a completed task, a rejected task
// with an attribution chain, a preempted task whose flow was killed
// mid-plan, and a link failure.
func sampleTree() *Tree {
	return &Tree{
		Tasks: []TaskSpan{
			{Task: 1, Arrival: 0, Deadline: 100, End: 30, Outcome: OutcomeCompleted,
				PreemptedBy: NoTask, Flows: []int64{10}},
			{Task: 2, Arrival: 5, Deadline: 40, End: 5, Outcome: OutcomeRejected,
				Reason: "reject rule: keep incumbents", PreemptedBy: NoTask, Flows: []int64{20},
				Blocks: []LinkBlock{{Link: 3, Window: iv(5, 40), Busy: 25,
					Holders: []Holder{{Task: 1, Busy: 25}}}}},
			{Task: 4, Arrival: 10, Deadline: 200, End: 50, Outcome: OutcomePreempted,
				Reason: "preempted", PreemptedBy: 5, Flows: []int64{40}},
		},
		Flows: []FlowSpan{
			{Flow: 10, Task: 1, Label: "h0->h1", Arrival: 0, Deadline: 100, End: 30,
				Ended: true, Done: true, OnTime: true,
				Segments: []Segment{{Interval: iv(0, 30), Rate: 1e9}}},
			{Flow: 20, Task: 2, Label: "h2->h3", Arrival: 5, Deadline: 40, End: 5,
				Ended: true, Note: "rejected"},
			{Flow: 40, Task: 4, Label: "h4->h5", Arrival: 10, Deadline: 200, End: 50,
				Ended: true, Note: "preempted"},
		},
		Replans: []ReplanSpan{
			{Seq: 1, Committed: true, Time: 0, Kind: ReplanArrival, Trigger: 1, Flows: 1, PathsTried: 2,
				Plans: []PlanSpan{{Flow: 10, Task: 1, Candidates: 2, PathIndex: 1,
					Path: []int32{3, 4}, Slices: []simtime.Interval{iv(0, 30)},
					Finish: 30, Deadline: 100}}},
			{Seq: 2, Committed: true, Time: 10, Kind: ReplanArrival, Trigger: 4, Flows: 1, PathsTried: 1,
				Plans: []PlanSpan{{Flow: 40, Task: 4, Candidates: 1, PathIndex: 0,
					Path: []int32{7}, Slices: []simtime.Interval{iv(30, 90)},
					Finish: 90, Deadline: 200}}},
		},
		LinkDowns: []LinkDown{{Time: 60, Link: 4}},
	}
}

func TestWriteTraceEventsValidAndDeterministic(t *testing.T) {
	tree := sampleTree()
	var a, b bytes.Buffer
	if err := WriteTraceEvents(&a, tree); err != nil {
		t.Fatal(err)
	}
	if err := WriteTraceEvents(&b, tree); err != nil {
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
	tree.LinkNames = []string{"x", "x", "x", "tor0-agg0"}
	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, tree); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "tor0-agg0") {
		t.Fatal("LinkNames labels not applied to link tracks")
	}
	if !strings.Contains(buf.String(), `"link 7"`) {
		t.Fatal("a link past the name table is not labelled by its ID")
	}
}

func TestHorizonClosesOpenSpans(t *testing.T) {
	tree := &Tree{
		Tasks: []TaskSpan{{Task: 1, Deadline: 100, PreemptedBy: NoTask, Flows: []int64{10}}},
		Flows: []FlowSpan{{Flow: 10, Task: 1, Deadline: 100,
			Segments: []Segment{{Interval: iv(0, 75), Rate: 1e9}}}},
	}
	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, tree); err != nil {
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

// synthTree is a tree of flows flows re-planned plansPerFlow times each:
// pass p re-plans plansPerFlow flows spread over the whole table, every
// plan granting two windows on a three-link path, and every fifth flow is
// killed mid-run.
func synthTree(flows, plansPerFlow int) *Tree {
	t := &Tree{}
	for f := 0; f < flows; f++ {
		t.Tasks = append(t.Tasks, TaskSpan{Task: int64(f), Deadline: 1e9, PreemptedBy: NoTask, Flows: []int64{int64(f)}})
		fs := FlowSpan{Flow: int64(f), Task: int64(f), Deadline: 1e9}
		if f%5 == 0 {
			fs.Ended, fs.End = true, simtime.Time(f*10+5)
		}
		t.Flows = append(t.Flows, fs)
	}
	for p := 0; p < flows; p++ {
		rs := ReplanSpan{Seq: p + 1, Committed: true, Time: simtime.Time(p * 10), Kind: ReplanArrival, Trigger: int64(p)}
		for k := 0; k < plansPerFlow; k++ {
			f := (p + k*flows/plansPerFlow) % flows
			at := simtime.Time(p * 10)
			rs.Plans = append(rs.Plans, PlanSpan{Flow: int64(f), Task: int64(f),
				Path:   []int32{int32(f % 64), int32(64 + f%8), int32(72 + k%64)},
				Slices: []simtime.Interval{iv(at, at+20), iv(at+40, at+60)}})
		}
		t.Replans = append(t.Replans, rs)
	}
	return t
}

// BenchmarkLinkSlices projects every grant onto its links: at twice the
// flows and twice the plans it should take twice the time.
func BenchmarkLinkSlices(b *testing.B) {
	for _, flows := range []int{2000, 4000} {
		tree := synthTree(flows, 20)
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				linkSlices(tree)
			}
		})
	}
}

// BenchmarkWriteTraceEvents is the whole export of smaller trees of the
// same shape; it builds every event in memory, ~0.25 GB per op at 1000
// flows.
func BenchmarkWriteTraceEvents(b *testing.B) {
	for _, flows := range []int{500, 1000} {
		tree := synthTree(flows, 20)
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := WriteTraceEvents(io.Discard, tree); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
