package sched_test

import (
	"testing"

	"taps/internal/obs"
	"taps/internal/obs/declog"
	"taps/internal/sched"
	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// lineSched sends every active flow at full path rate (the pair topology
// below gives each flow a private path, so this is feasible).
type lineSched struct{ sim.NopHooks }

func (lineSched) Name() string { return "line" }

func (lineSched) Rates(st *sim.State) (sim.RateMap, simtime.Time) {
	m := make(sim.RateMap)
	for _, f := range st.ActiveFlows() {
		m[f.ID] = st.Graph().MinCapacity(f.Path)
	}
	return m, simtime.Infinity
}

func TestObserveRecordsAdmissionsAndLatency(t *testing.T) {
	g := topology.NewGraph()
	s := g.AddNode(topology.ToR, "s", 1, 0)
	a := g.AddNode(topology.Host, "a", 0, 0)
	b := g.AddNode(topology.Host, "b", 0, 0)
	g.AddDuplex(a, s, 1e6)
	g.AddDuplex(b, s, 1e6)
	r := topology.NewBFSRouting(g)

	specs := []sim.TaskSpec{
		{Arrival: 0, Deadline: simtime.Second,
			Flows: []sim.FlowSpec{{Src: a, Dst: b, Size: 1000}}},
		{Arrival: simtime.Millisecond, Deadline: simtime.Second,
			Flows: []sim.FlowSpec{{Src: b, Dst: a, Size: 1000}}},
	}
	rec := obs.NewRecorder()
	wrapped := sched.Observe(lineSched{}, rec)
	if wrapped.Name() != "line" {
		t.Fatalf("name = %q", wrapped.Name())
	}
	eng := sim.New(g, r, wrapped, specs, sim.Config{Validate: true, Sink: declog.Sink{Obs: rec}})
	if _, err := eng.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := rec.Count(obs.KindTaskAdmitted); n != 2 {
		t.Fatalf("admitted count = %d, want 2", n)
	}
	if rec.PlannerLatency().Count() == 0 {
		t.Fatal("Rates calls must feed the planner-latency histogram")
	}
}

func TestObserveNilRecorderIsIdentity(t *testing.T) {
	s := lineSched{}
	if got := sched.Observe(s, nil); got != sim.Scheduler(s) {
		t.Fatalf("nil recorder must return the scheduler unchanged, got %T", got)
	}
}
