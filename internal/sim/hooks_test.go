package sim_test

import (
	"bytes"
	"slices"
	"strings"
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
	rec, log := obs.NewRecorder(), &declog.Writer{}
	s := &endSched{}
	eng := sim.New(g, r, s, specs, sim.Config{Validate: true, Sink: declog.Sink{Log: log, Obs: rec}})
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
	tree := replayed(t, log)
	if ts := tree.Tasks[0]; ts.Outcome != span.OutcomePreempted || ts.Reason != "test: preempted" {
		t.Fatalf("task 0 span = %+v", ts)
	}
	if ts := tree.Tasks[1]; ts.Outcome != span.OutcomeRejected || ts.Reason != "test: rejected" {
		t.Fatalf("task 1 span = %+v", ts)
	}
}

// lineSched sends every active flow at full path rate (the pair topology
// gives each direction a private path, so this is feasible) and counts its
// Rates calls.
type lineSched struct {
	sim.NopHooks
	calls uint64
}

func (*lineSched) Name() string { return "line" }

func (s *lineSched) Rates(st *sim.State) (sim.RateMap, simtime.Time) {
	s.calls++
	m := make(sim.RateMap)
	for _, f := range st.ActiveFlows() {
		m[f.ID] = st.Graph().MinCapacity(f.Path)
	}
	return m, simtime.Infinity
}

// TestObserveRecordsAdmissionsAndLatency checks that the run's sink alone
// records a scheduler that reports nothing itself: the engine tallies
// every arrival it leaves alive as an admission and times every Rates call
// as a planner sample.
func TestObserveRecordsAdmissionsAndLatency(t *testing.T) {
	g, r, a, b := pair()
	specs := []sim.TaskSpec{
		{Arrival: 0, Deadline: simtime.Second,
			Flows: []sim.FlowSpec{{Src: a, Dst: b, Size: 1000}}},
		{Arrival: simtime.Millisecond, Deadline: simtime.Second,
			Flows: []sim.FlowSpec{{Src: b, Dst: a, Size: 1000}}},
	}
	rec, s := obs.NewRecorder(), &lineSched{}
	eng := sim.New(g, r, s, specs, sim.Config{Validate: true, Sink: declog.Sink{Obs: rec}})
	if _, err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := rec.Count(obs.KindTaskAdmitted); n != 2 {
		t.Fatalf("admitted count = %d, want 2", n)
	}
	if n := rec.PlannerLatency().Count(); n == 0 || n != s.calls {
		t.Fatalf("planner samples = %d, want one per Rates call (%d)", n, s.calls)
	}

	t.Run("log without recorder", func(t *testing.T) {
		specs := append(specs, sim.TaskSpec{Arrival: 2 * simtime.Millisecond, Deadline: simtime.Second,
			Flows: []sim.FlowSpec{{Src: a, Dst: b, Size: 1000}}})
		log := &declog.Writer{}
		eng := sim.New(g, r, rejectSecondTask{}, specs, sim.Config{Validate: true, Sink: declog.Sink{Log: log}})
		if _, err := eng.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		b, err := log.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		recs, _, err := declog.Read(bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		var admitted []int64
		for _, rc := range recs {
			if rc.Kind == declog.KindAdmit {
				admitted = append(admitted, rc.Task)
			}
		}
		if want := []int64{0, 2}; !slices.Equal(admitted, want) {
			t.Fatalf("admit records for tasks %v, want %v (task 1 is rejected)", admitted, want)
		}
	})
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
	rec, log := obs.NewRecorder(), &declog.Writer{}
	eng := sim.New(g, r, serialSched{}, specs, sim.Config{
		Validate: true, Sink: declog.Sink{Log: log, Obs: rec},
		LinkFailures: []sim.LinkFailure{{At: simtime.Millisecond, Link: 0}},
	})
	if _, err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := rec.Count(obs.KindLinkDown); n != 1 {
		t.Fatalf("link-down count = %d", n)
	}
	if downs := replayed(t, log).LinkDowns; len(downs) != 1 || downs[0].Link != 0 || downs[0].Time != simtime.Millisecond {
		t.Fatalf("link downs = %+v", downs)
	}
}

// orderSched is shareSched (every active flow at an equal share, so
// same-sized flows finish at the same instant) that records what each
// hook sees of the active set. kill, when set, runs once, at the start of
// the next Rates call.
type orderSched struct {
	shareSched
	finished, missed []sim.FlowID
	// ActiveFlows() during each flow's OnFlowFinished / OnDeadlineMissed
	seen, seenMissed map[sim.FlowID][]sim.FlowID
	killMissed       sim.FlowID // OnDeadlineMissed kills this flow
	kill             func(st *sim.State)
	afterKill        []sim.FlowID // ActiveFlows() right after the first kill
}

func newOrderSched(killMissed sim.FlowID) *orderSched {
	return &orderSched{seen: map[sim.FlowID][]sim.FlowID{}, seenMissed: map[sim.FlowID][]sim.FlowID{}, killMissed: killMissed}
}

func activeIDs(st *sim.State) []sim.FlowID {
	var ids []sim.FlowID
	for _, f := range st.ActiveFlows() {
		ids = append(ids, f.ID)
	}
	return ids
}

func (s *orderSched) OnFlowFinished(st *sim.State, f *sim.Flow) {
	s.finished = append(s.finished, f.ID)
	s.seen[f.ID] = activeIDs(st)
}

func (s *orderSched) OnDeadlineMissed(st *sim.State, f *sim.Flow) {
	s.missed = append(s.missed, f.ID)
	s.seenMissed[f.ID] = activeIDs(st)
	if f.ID == s.killMissed {
		st.KillFlow(f, "test: missed")
	}
}

func (s *orderSched) Rates(st *sim.State) (sim.RateMap, simtime.Time) {
	if s.kill != nil {
		s.kill(st)
		s.kill = nil
		s.afterKill = activeIDs(st)
	}
	return s.shareSched.Rates(st)
}

// TestHooksSeeIDOrderedActiveSet pins the active set as the hooks see it:
// flows that finish or miss their deadline at one instant reach their
// hooks in ID order, each finish hook still sees the later finishers
// active, a KillFlow from inside Rates leaves the rest in ID order, and an
// out-of-range flow ID in a rate map is an error or ignored, never a panic.
func TestHooksSeeIDOrderedActiveSet(t *testing.T) {
	g, r, a, b := pair()
	flows := func(sizes ...int64) []sim.FlowSpec {
		var fs []sim.FlowSpec
		for _, sz := range sizes {
			fs = append(fs, sim.FlowSpec{Src: a, Dst: b, Size: sz})
		}
		return fs
	}

	t.Run("finish", func(t *testing.T) {
		// Flows 0, 1, 3 and 4 finish together at 5 ms; flow 2 runs on.
		s := newOrderSched(-1)
		run(t, g, r, s, []sim.TaskSpec{
			{Deadline: simtime.Second, Flows: flows(1000, 1000, 3000)},
			{Deadline: simtime.Second, Flows: flows(1000, 1000)},
		})
		if want := []sim.FlowID{0, 1, 3, 4, 2}; !slices.Equal(s.finished, want) {
			t.Fatalf("OnFlowFinished order = %v, want %v", s.finished, want)
		}
		for id, want := range map[sim.FlowID][]sim.FlowID{
			0: {1, 2, 3, 4}, 1: {2, 3, 4}, 3: {2, 4}, 4: {2}, 2: nil,
		} {
			if !slices.Equal(s.seen[id], want) {
				t.Fatalf("ActiveFlows() during OnFlowFinished(%d) = %v, want %v", id, s.seen[id], want)
			}
		}
	})

	t.Run("deadline", func(t *testing.T) {
		// Both tasks' deadlines fall at 5 ms, long before any flow is done.
		// The first hook kills its flow; the later hooks no longer see it.
		s := newOrderSched(0)
		run(t, g, r, s, []sim.TaskSpec{
			{Deadline: 5 * simtime.Millisecond, Flows: flows(100000, 100000)},
			{Arrival: simtime.Millisecond, Deadline: 4 * simtime.Millisecond, Flows: flows(100000, 100000)},
		})
		if want := []sim.FlowID{0, 1, 2, 3}; !slices.Equal(s.missed, want) {
			t.Fatalf("OnDeadlineMissed order = %v, want %v", s.missed, want)
		}
		if want := []sim.FlowID{1, 2, 3}; !slices.Equal(s.seenMissed[1], want) {
			t.Fatalf("ActiveFlows() during OnDeadlineMissed(1) = %v, want %v", s.seenMissed[1], want)
		}
	})

	t.Run("kill in Rates", func(t *testing.T) {
		s := newOrderSched(-1)
		s.kill = func(st *sim.State) { st.KillFlow(st.Flow(2), "test: early termination") }
		res := run(t, g, r, s, []sim.TaskSpec{{Deadline: simtime.Second, Flows: flows(1000, 2000, 1000, 3000, 1000)}})
		if want := []sim.FlowID{0, 1, 3, 4}; !slices.Equal(s.afterKill, want) {
			t.Fatalf("ActiveFlows() after killing flow 2 = %v, want %v", s.afterKill, want)
		}
		if want := []sim.FlowID{0, 4, 1, 3}; !slices.Equal(s.finished, want) {
			t.Fatalf("OnFlowFinished order = %v, want %v", s.finished, want)
		}
		if f := res.Flows[2]; f.State != sim.FlowKilled || f.BytesSent != 0 {
			t.Fatalf("flow 2 = %+v, want killed before sending", f)
		}
	})

	t.Run("out-of-range ID", func(t *testing.T) {
		specs := []sim.TaskSpec{{Deadline: simtime.Second, Flows: flows(1000)}}
		for _, id := range []sim.FlowID{1, 99, -1} {
			eng := sim.New(g, r, strayRateSched{id: id}, specs, sim.Config{Validate: true})
			if _, err := eng.Run(); err == nil || !strings.Contains(err.Error(), "non-active flow") {
				t.Fatalf("rate for flow %d: got %v, want a non-active flow error", id, err)
			}
			// Without validation the stray rate is skipped.
			res, err := sim.New(g, r, strayRateSched{id: id}, specs, sim.Config{}).Run()
			if err != nil || res.Flows[0].State != sim.FlowDone || len(res.Flows) != 1 {
				t.Fatalf("rate for flow %d without validation: %v, %+v", id, err, res)
			}
		}
	})
}

// strayRateSched is serialSched that also assigns a rate to a flow ID the
// run does not have.
type strayRateSched struct {
	sim.NopHooks
	id sim.FlowID
}

func (strayRateSched) Name() string { return "stray" }

func (s strayRateSched) Rates(st *sim.State) (sim.RateMap, simtime.Time) {
	m, h := serialSched{}.Rates(st)
	if m != nil {
		m[s.id] = 1
	}
	return m, h
}
