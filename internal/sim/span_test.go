package sim_test

import (
	"bytes"
	"testing"

	"taps/internal/obs/declog"
	"taps/internal/obs/span"
	"taps/internal/sim"
	"taps/internal/simtime"
)

// replayed folds the decision log a run wrote into its span tree.
func replayed(t *testing.T, log *declog.Writer) *span.Tree {
	t.Helper()
	b, err := log.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	recs, truncated, err := declog.Read(bytes.NewReader(b))
	if err != nil || truncated {
		t.Fatalf("read back the decision log: truncated=%v err=%v", truncated, err)
	}
	rp := declog.NewReplayer()
	rp.ApplyAll(recs)
	return rp.Tree()
}

// TestEngineSpanLifecycle checks the engine-side span wiring: arrivals
// open task/flow spans with route labels, completions close them with
// outcomes and on-time flags, instant (local) flows end at arrival, and
// recorded transmission segments are imported into the flow spans.
func TestEngineSpanLifecycle(t *testing.T) {
	g, r, a, b := pair()
	specs := []sim.TaskSpec{
		{Arrival: 0, Deadline: 10 * simtime.Millisecond, Flows: []sim.FlowSpec{
			{Src: a, Dst: b, Size: 5000},
			{Src: a, Dst: a, Size: 100}, // local: delivered instantly
		}},
		{Arrival: 2 * simtime.Millisecond, Deadline: simtime.Millisecond,
			Flows: []sim.FlowSpec{{Src: b, Dst: a, Size: 50000}}}, // will miss
	}
	log := &declog.Writer{}
	eng := sim.New(g, r, killOnMiss{}, specs, sim.Config{
		RecordSegments: true, Sink: declog.Sink{Log: log}, MaxTime: simtime.Time(1e12),
	})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	tree := replayed(t, log)

	if len(tree.Tasks) != 2 || len(tree.Flows) != 3 {
		t.Fatalf("tree has %d tasks, %d flows; want 2, 3", len(tree.Tasks), len(tree.Flows))
	}
	t0 := tree.Task(0)
	if t0.Outcome != span.OutcomeCompleted {
		t.Fatalf("task 0 outcome = %v", t0.Outcome)
	}
	if t0.End != 5*simtime.Millisecond {
		t.Fatalf("task 0 end = %d, want completion instant of its last flow", t0.End)
	}
	t1 := tree.Task(1)
	if t1.Outcome != span.OutcomeKilled || t1.Reason == "" {
		t.Fatalf("task 1 outcome = %v (%q), want killed with a note", t1.Outcome, t1.Reason)
	}

	f0 := tree.Flow(0)
	if f0.Label != "a->b" {
		t.Fatalf("flow 0 label = %q", f0.Label)
	}
	if !f0.Ended || !f0.Done || !f0.OnTime {
		t.Fatalf("flow 0 terminal = %+v", f0)
	}
	if len(f0.Segments) == 0 {
		t.Fatal("flow 0 has no imported transmission segments")
	}
	if f1 := tree.Flow(1); !f1.Ended || !f1.Done || f1.End != 0 {
		t.Fatalf("instant local flow terminal = %+v", f1)
	}
	if f2 := tree.Flow(2); !f2.Ended || f2.Done || f2.Note == "" {
		t.Fatalf("killed flow terminal = %+v", f2)
	}
}

// killOnMiss is serialSched plus the usual deadline reaction: kill the
// expired flow.
type killOnMiss struct{ serialSched }

func (killOnMiss) OnDeadlineMissed(st *sim.State, f *sim.Flow) {
	st.KillFlow(f, "deadline missed")
}

// TestEngineSpanLinkFailure checks that injected link failures land in the
// span tree.
func TestEngineSpanLinkFailure(t *testing.T) {
	g, r, a, b := pair()
	specs := []sim.TaskSpec{{Arrival: 0, Deadline: 50 * simtime.Millisecond,
		Flows: []sim.FlowSpec{{Src: a, Dst: b, Size: 5000}}}}
	log := &declog.Writer{}
	eng := sim.New(g, r, serialSched{}, specs, sim.Config{
		Sink: declog.Sink{Log: log},
		LinkFailures: []sim.LinkFailure{
			{At: simtime.Millisecond, Link: g.Out(a)[0]},
		},
		MaxTime: simtime.Time(1e12),
	})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	tree := replayed(t, log)
	if len(tree.LinkDowns) != 1 || tree.LinkDowns[0].Time != simtime.Millisecond {
		t.Fatalf("link downs = %+v", tree.LinkDowns)
	}
	// a->b has a single path through the switch: the failure disconnects
	// the flow, which must surface as a killed flow and a killed task.
	if f := tree.Flow(0); !f.Ended || f.Done {
		t.Fatalf("disconnected flow terminal = %+v", f)
	}
	if ts := tree.Task(0); ts.Outcome != span.OutcomeKilled {
		t.Fatalf("task outcome = %v, want killed", ts.Outcome)
	}
}
