package sim_test

import (
	"testing"

	"taps/internal/obs"
	"taps/internal/obs/declog"
	"taps/internal/obs/span"
	"taps/internal/sim"
	"taps/internal/simtime"
)

// endSched rejects or preempts tasks from inside OnTaskArrival and counts
// the resulting hook callbacks, to pin down the kill→hook contract.
type endSched struct {
	serialSched
	rejected  []sim.TaskID
	preempted []sim.TaskID
}

func (s *endSched) OnTaskArrival(st *sim.State, task *sim.Task) {
	// Second arrival sacrifices the first task and is itself discarded.
	if task.ID == 1 {
		st.PreemptTask(0, "test: preempted")
		st.KillTask(1, "test: rejected")
		// Redundant kills must not re-fire the hooks.
		st.KillTask(0, "test: double kill")
		st.PreemptTask(1, "test: double kill")
	}
}

func (s *endSched) OnTaskRejected(st *sim.State, task *sim.Task) {
	s.rejected = append(s.rejected, task.ID)
}

func (s *endSched) OnTaskPreempted(st *sim.State, task *sim.Task) {
	s.preempted = append(s.preempted, task.ID)
}

func TestTaskEndHooksFireOnce(t *testing.T) {
	g, r, a, b := pair()
	specs := []sim.TaskSpec{
		{Arrival: 0, Deadline: 100 * simtime.Millisecond,
			Flows: []sim.FlowSpec{{Src: a, Dst: b, Size: 10000}}},
		{Arrival: 5 * simtime.Millisecond, Deadline: 100 * simtime.Millisecond,
			Flows: []sim.FlowSpec{{Src: a, Dst: b, Size: 10000}}},
	}
	rec, spans := obs.NewRecorder(), span.NewRecorder()
	s := &endSched{}
	eng := sim.New(g, r, s, specs, sim.Config{Validate: true, Sink: declog.Sink{Spans: spans, Obs: rec}})
	if _, err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}

	if len(s.preempted) != 1 || s.preempted[0] != 0 {
		t.Fatalf("preempted hooks = %v, want [0]", s.preempted)
	}
	if len(s.rejected) != 1 || s.rejected[0] != 1 {
		t.Fatalf("rejected hooks = %v, want [1]", s.rejected)
	}

	// The engine records one terminal record per kill, with the first
	// note, and the sink counts each once.
	if n := rec.Count(obs.KindTaskPreempted); n != 1 {
		t.Fatalf("preempted count = %d", n)
	}
	if n := rec.Count(obs.KindTaskRejected); n != 1 {
		t.Fatalf("rejected count = %d", n)
	}
	tree := spans.Snapshot()
	if ts := tree.Tasks[0]; ts.Outcome != span.OutcomePreempted || ts.Reason != "test: preempted" {
		t.Fatalf("task 0 span = %+v", ts)
	}
	if ts := tree.Tasks[1]; ts.Outcome != span.OutcomeRejected || ts.Reason != "test: rejected" {
		t.Fatalf("task 1 span = %+v", ts)
	}
}

// TestDeadlineAndLinkEventsRecorded covers the engine-side records that
// don't involve task kills: a flow that finishes past its deadline counts
// as a deadline miss (link failures: TestLinkDownEventRecorded).
func TestDeadlineAndLinkEventsRecorded(t *testing.T) {
	g, r, a, b := pair()
	specs := []sim.TaskSpec{{
		Arrival:  0,
		Deadline: 2 * simtime.Millisecond, // 10000 B at 1e6 B/s needs 10 ms
		Flows:    []sim.FlowSpec{{Src: a, Dst: b, Size: 10000}},
	}}
	rec := obs.NewRecorder()
	eng := sim.New(g, r, serialSched{}, specs, sim.Config{Validate: true, Sink: declog.Sink{Obs: rec}})
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if f := res.Flows[0]; f.State != sim.FlowDone || f.Finish <= f.Deadline {
		t.Fatalf("flow = %+v, want a late completion", f)
	}
	if n := rec.Count(obs.KindDeadlineMissed); n != 1 {
		t.Fatalf("deadline-missed count = %d", n)
	}
}

func TestLinkDownEventRecorded(t *testing.T) {
	g, r, a, b := pair()
	specs := []sim.TaskSpec{{
		Arrival:  0,
		Deadline: 100 * simtime.Millisecond,
		Flows:    []sim.FlowSpec{{Src: a, Dst: b, Size: 10000}},
	}}
	rec, spans := obs.NewRecorder(), span.NewRecorder()
	eng := sim.New(g, r, serialSched{}, specs, sim.Config{
		Validate: true, Sink: declog.Sink{Spans: spans, Obs: rec},
		LinkFailures: []sim.LinkFailure{{At: simtime.Millisecond, Link: 0}},
	})
	if _, err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := rec.Count(obs.KindLinkDown); n != 1 {
		t.Fatalf("link-down count = %d", n)
	}
	if downs := spans.Snapshot().LinkDowns; len(downs) != 1 || downs[0].Link != 0 || downs[0].Time != simtime.Millisecond {
		t.Fatalf("link downs = %+v", downs)
	}
}
