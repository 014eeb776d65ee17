package span_test

import (
	"bytes"
	"reflect"
	"testing"

	"taps/internal/obs/declog"
	"taps/internal/obs/span"
	"taps/internal/simtime"
)

func ivl(s, e simtime.Time) simtime.Interval { return simtime.Interval{Start: s, End: e} }

// TestRecorderLifecycle: the decision log records a task's lifecycle and
// its replay is the span tree. A task arrives with one flow, is planned,
// transmits and completes, and a link fails; replaying the log gives one
// span of each with every lifecycle field in place. Each replay of the
// log is a tree of its own: changing one leaves the next replay intact.
func TestRecorderLifecycle(t *testing.T) {
	var log declog.Writer
	for _, r := range []declog.Record{
		{Kind: declog.KindTask, Time: 10, Task: 3, Deadline: 100,
			Flows: []declog.FlowInfo{{ID: 7, Label: "h1->h2"}}},
		{Kind: declog.KindReplan, Time: 10, Replan: &span.ReplanSpan{
			Time: 10, Kind: span.ReplanArrival, Trigger: 3, Flows: 1,
			Plans: []span.PlanSpan{{Flow: 7, Task: 3, Candidates: 2, PathIndex: 0,
				Path: []int32{4, 5}, Slices: []simtime.Interval{ivl(10, 40)},
				Finish: 40, Deadline: 100}}}},
		{Kind: declog.KindSegments, Time: 40, Flow: 7,
			Segments: []span.Segment{{Interval: ivl(10, 40), Rate: 1e9}}},
		{Kind: declog.KindFlowEnd, Time: 40, Flow: 7, Done: true, OnTime: true},
		{Kind: declog.KindTaskEnd, Time: 40, Task: 3, Outcome: span.OutcomeCompleted},
		{Kind: declog.KindLinkDown, Time: 99, Link: 4},
	} {
		if err := log.Append(&r); err != nil {
			t.Fatal(err)
		}
	}
	replay := func() *span.Tree {
		t.Helper()
		b, err := log.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		recs, truncated, err := declog.Read(bytes.NewReader(b))
		if err != nil || truncated {
			t.Fatalf("read back: err=%v truncated=%v", err, truncated)
		}
		rp := declog.NewReplayer()
		rp.ApplyAll(recs)
		return rp.Tree()
	}

	tree := replay()
	if len(tree.Tasks) != 1 || len(tree.Flows) != 1 || len(tree.Replans) != 1 {
		t.Fatalf("tree sizes: %d tasks %d flows %d replans",
			len(tree.Tasks), len(tree.Flows), len(tree.Replans))
	}
	ts := tree.Task(3)
	if ts == nil || ts.Outcome != span.OutcomeCompleted || ts.End != 40 || ts.Arrival != 10 ||
		ts.Deadline != 100 || ts.PreemptedBy != span.NoTask {
		t.Fatalf("task span: %+v", ts)
	}
	if !reflect.DeepEqual(ts.Flows, []int64{7}) {
		t.Fatalf("task flows: %v", ts.Flows)
	}
	fs := tree.Flow(7)
	if fs == nil || fs.Task != 3 || fs.Label != "h1->h2" || !fs.Ended || !fs.Done || !fs.OnTime ||
		fs.End != 40 || len(fs.Segments) != 1 {
		t.Fatalf("flow span: %+v", fs)
	}
	if fs.Segments[0].Interval != ivl(10, 40) {
		t.Fatalf("segments: %+v", fs.Segments)
	}
	if tree.Replans[0].Seq != 1 {
		t.Fatalf("replan seq: %d", tree.Replans[0].Seq)
	}
	if len(tree.LinkDowns) != 1 || tree.LinkDowns[0].Link != 4 || tree.LinkDowns[0].Time != 99 {
		t.Fatalf("link downs: %+v", tree.LinkDowns)
	}

	ts.Flows[0] = 999
	tree.Replans[0].Plans[0].Path[0] = 99
	if got := replay(); got.Task(3).Flows[0] != 7 || got.Replans[0].Plans[0].Path[0] != 4 {
		t.Fatal("a replay shares memory with the one before it")
	}
}
