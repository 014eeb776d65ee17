package sim_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// pair builds a two-host topology connected through one switch, 1000 B/ms.
func pair() (*topology.Graph, topology.Routing, topology.NodeID, topology.NodeID) {
	g := topology.NewGraph()
	s := g.AddNode(topology.ToR, "s", 1, 0)
	a := g.AddNode(topology.Host, "a", 0, 0)
	b := g.AddNode(topology.Host, "b", 0, 0)
	g.AddDuplex(a, s, 1e6)
	g.AddDuplex(b, s, 1e6)
	return g, topology.NewBFSRouting(g), a, b
}

// serialSched transmits active flows one at a time, smallest flow ID first,
// at full line rate. It never kills anything.
type serialSched struct{ sim.NopHooks }

func (serialSched) Name() string { return "serial" }

func (serialSched) Rates(st *sim.State) (sim.RateMap, simtime.Time) {
	flows := st.ActiveFlows()
	if len(flows) == 0 {
		return nil, simtime.Infinity
	}
	f := flows[0]
	return sim.RateMap{f.ID: st.Graph().MinCapacity(f.Path)}, simtime.Infinity
}

// shareSched splits the bottleneck evenly among active flows on the
// two-host pair topology (all flows share one path).
type shareSched struct{ sim.NopHooks }

func (shareSched) Name() string { return "share" }

func (shareSched) Rates(st *sim.State) (sim.RateMap, simtime.Time) {
	flows := st.ActiveFlows()
	if len(flows) == 0 {
		return nil, simtime.Infinity
	}
	rate := st.Graph().MinCapacity(flows[0].Path) / float64(len(flows))
	m := make(sim.RateMap, len(flows))
	for _, f := range flows {
		m[f.ID] = rate
	}
	return m, simtime.Infinity
}

func run(t *testing.T, g *topology.Graph, r topology.Routing, s sim.Scheduler, specs []sim.TaskSpec) *sim.Result {
	t.Helper()
	eng := sim.New(g, r, s, specs, sim.Config{Validate: true, MaxTime: simtime.Time(1e12)})
	res, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestSingleFlowCompletes(t *testing.T) {
	g, r, a, b := pair()
	specs := []sim.TaskSpec{{
		Arrival:  0,
		Deadline: 10 * simtime.Millisecond,
		Flows:    []sim.FlowSpec{{Src: a, Dst: b, Size: 5000}},
	}}
	res := run(t, g, r, serialSched{}, specs)
	f := res.Flows[0]
	if f.State != sim.FlowDone {
		t.Fatalf("state = %v", f.State)
	}
	// 5000 bytes at 1e6 B/s = 5 ms.
	if f.Finish != 5*simtime.Millisecond {
		t.Fatalf("finish = %d", f.Finish)
	}
	if !f.OnTime() {
		t.Fatal("flow should be on time")
	}
	if !res.Tasks[0].Completed(res.Flows) {
		t.Fatal("task should be completed")
	}
}

func TestLateFlowIsNotOnTime(t *testing.T) {
	g, r, a, b := pair()
	specs := []sim.TaskSpec{{
		Arrival:  0,
		Deadline: 2 * simtime.Millisecond,
		Flows:    []sim.FlowSpec{{Src: a, Dst: b, Size: 5000}},
	}}
	res := run(t, g, r, serialSched{}, specs)
	f := res.Flows[0]
	if f.State != sim.FlowDone {
		t.Fatalf("state = %v (serial never kills)", f.State)
	}
	if f.OnTime() {
		t.Fatal("flow missed its deadline and must not be on time")
	}
	if res.Tasks[0].Completed(res.Flows) {
		t.Fatal("task must not be completed")
	}
}

func TestSerialOrderAndFinishTimes(t *testing.T) {
	g, r, a, b := pair()
	specs := []sim.TaskSpec{{
		Arrival:  0,
		Deadline: 100 * simtime.Millisecond,
		Flows: []sim.FlowSpec{
			{Src: a, Dst: b, Size: 1000},
			{Src: a, Dst: b, Size: 2000},
			{Src: a, Dst: b, Size: 3000},
		},
	}}
	res := run(t, g, r, serialSched{}, specs)
	want := []simtime.Time{1, 3, 6} // ms: serialized 1,2,3 ms
	for i, f := range res.Flows {
		if f.Finish != want[i]*simtime.Millisecond {
			t.Errorf("flow %d finish = %d want %d ms", i, f.Finish, want[i])
		}
	}
}

func TestFairShareSplitsEqually(t *testing.T) {
	g, r, a, b := pair()
	specs := []sim.TaskSpec{{
		Arrival:  0,
		Deadline: 100 * simtime.Millisecond,
		Flows: []sim.FlowSpec{
			{Src: a, Dst: b, Size: 1000},
			{Src: a, Dst: b, Size: 1000},
		},
	}}
	res := run(t, g, r, shareSched{}, specs)
	// Both at 500 B/ms -> both complete at 2 ms.
	for _, f := range res.Flows {
		if f.Finish != 2*simtime.Millisecond {
			t.Errorf("flow %d finish = %d", f.ID, f.Finish)
		}
	}
}

func TestArrivalsStaggerAndIdleGap(t *testing.T) {
	g, r, a, b := pair()
	specs := []sim.TaskSpec{
		{Arrival: 0, Deadline: simtime.Second, Flows: []sim.FlowSpec{{Src: a, Dst: b, Size: 1000}}},
		{Arrival: 50 * simtime.Millisecond, Deadline: simtime.Second, Flows: []sim.FlowSpec{{Src: a, Dst: b, Size: 1000}}},
	}
	res := run(t, g, r, serialSched{}, specs)
	if res.Flows[0].Finish != 1*simtime.Millisecond {
		t.Fatalf("first finish = %d", res.Flows[0].Finish)
	}
	// Second flow starts only at its arrival (50 ms), after an idle gap.
	if res.Flows[1].Finish != 51*simtime.Millisecond {
		t.Fatalf("second finish = %d", res.Flows[1].Finish)
	}
}

func TestZeroSizeFlowCompletesInstantly(t *testing.T) {
	g, r, a, b := pair()
	specs := []sim.TaskSpec{{
		Arrival:  7,
		Deadline: 10,
		Flows:    []sim.FlowSpec{{Src: a, Dst: b, Size: 0}},
	}}
	res := run(t, g, r, serialSched{}, specs)
	f := res.Flows[0]
	if f.State != sim.FlowDone || f.Finish != 7 || !f.OnTime() {
		t.Fatalf("zero-size flow: state=%v finish=%d", f.State, f.Finish)
	}
}

// killOnMissSched kills flows at their deadline.
type killOnMissSched struct{ serialSched }

func (killOnMissSched) OnDeadlineMissed(st *sim.State, f *sim.Flow) {
	st.KillFlow(f, "test kill")
}

func TestDeadlineKillAccountsWastedBytes(t *testing.T) {
	g, r, a, b := pair()
	specs := []sim.TaskSpec{{
		Arrival:  0,
		Deadline: 2 * simtime.Millisecond,
		Flows:    []sim.FlowSpec{{Src: a, Dst: b, Size: 5000}},
	}}
	res := run(t, g, r, killOnMissSched{}, specs)
	f := res.Flows[0]
	if f.State != sim.FlowKilled {
		t.Fatalf("state = %v", f.State)
	}
	if f.Finish != 2*simtime.Millisecond {
		t.Fatalf("kill time = %d", f.Finish)
	}
	// 2 ms at 1000 B/ms = 2000 bytes were carried and wasted.
	if f.BytesSent < 1999 || f.BytesSent > 2001 {
		t.Fatalf("bytes sent = %g", f.BytesSent)
	}
	if f.KillNote != "test kill" {
		t.Fatalf("kill note = %q", f.KillNote)
	}
}

func TestTaskCompletionFraction(t *testing.T) {
	g, r, a, b := pair()
	var fraction float64
	probe := &probeSched{at: 3 * simtime.Millisecond, f: func(st *sim.State) {
		fraction = st.TaskCompletionFraction(0)
	}}
	specs := []sim.TaskSpec{{
		Arrival:  0,
		Deadline: 100 * simtime.Millisecond,
		Flows: []sim.FlowSpec{
			{Src: a, Dst: b, Size: 2000},
			{Src: a, Dst: b, Size: 2000},
		},
	}}
	run(t, g, r, probe, specs)
	// At 3 ms serialized: flow0 done (2000), flow1 has 1000 -> 3/4.
	if fraction < 0.74 || fraction > 0.76 {
		t.Fatalf("fraction at 3ms = %g, want 0.75", fraction)
	}
}

// probeSched is serial but invokes f at the first event at/after `at`.
type probeSched struct {
	serialSched
	at    simtime.Time
	f     func(*sim.State)
	fired bool
}

func (p *probeSched) Rates(st *sim.State) (sim.RateMap, simtime.Time) {
	if !p.fired && st.Now() >= p.at {
		p.fired = true
		p.f(st)
	}
	m, _ := p.serialSched.Rates(st)
	// Force a wake-up at p.at.
	if !p.fired {
		return m, p.at
	}
	return m, simtime.Infinity
}

func TestKillTaskMarksRejected(t *testing.T) {
	g, r, a, b := pair()
	s := &rejectSecondTask{}
	specs := []sim.TaskSpec{
		{Arrival: 0, Deadline: simtime.Second, Flows: []sim.FlowSpec{{Src: a, Dst: b, Size: 1000}}},
		{Arrival: 0, Deadline: simtime.Second, Flows: []sim.FlowSpec{{Src: a, Dst: b, Size: 1000}, {Src: a, Dst: b, Size: 1000}}},
	}
	res := run(t, g, r, s, specs)
	if !res.Tasks[1].Rejected {
		t.Fatal("task 1 should be rejected")
	}
	for _, fid := range res.Tasks[1].Flows {
		if res.Flows[fid].State != sim.FlowKilled {
			t.Fatalf("flow %d state = %v", fid, res.Flows[fid].State)
		}
	}
	if !res.Tasks[0].Completed(res.Flows) {
		t.Fatal("task 0 should complete")
	}
}

type rejectSecondTask struct{ serialSched }

func (rejectSecondTask) OnTaskArrival(st *sim.State, task *sim.Task) {
	if task.ID == 1 {
		st.KillTask(task.ID, "rejected")
	}
}

func TestValidateRejectsOversubscription(t *testing.T) {
	g, r, a, b := pair()
	specs := []sim.TaskSpec{{
		Arrival:  0,
		Deadline: simtime.Second,
		Flows: []sim.FlowSpec{
			{Src: a, Dst: b, Size: 1000},
			{Src: a, Dst: b, Size: 1000},
		},
	}}
	eng := sim.New(g, r, overSched{}, specs, sim.Config{Validate: true})
	if _, err := eng.Run(); err == nil || !strings.Contains(err.Error(), "oversubscribed") {
		t.Fatalf("expected oversubscription error, got %v", err)
	}
}

// overSched oversubscribes the shared link.
type overSched struct{ sim.NopHooks }

func (overSched) Name() string { return "over" }

func (overSched) Rates(st *sim.State) (sim.RateMap, simtime.Time) {
	m := make(sim.RateMap)
	for _, f := range st.ActiveFlows() {
		m[f.ID] = st.Graph().MinCapacity(f.Path) // full rate to everyone
	}
	return m, simtime.Infinity
}

func TestValidateRejectsNegativeRate(t *testing.T) {
	g, r, a, b := pair()
	specs := []sim.TaskSpec{{Arrival: 0, Deadline: simtime.Second,
		Flows: []sim.FlowSpec{{Src: a, Dst: b, Size: 1000}}}}
	eng := sim.New(g, r, negSched{}, specs, sim.Config{Validate: true})
	if _, err := eng.Run(); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("expected negative-rate error, got %v", err)
	}
}

type negSched struct{ sim.NopHooks }

func (negSched) Name() string { return "neg" }

func (negSched) Rates(st *sim.State) (sim.RateMap, simtime.Time) {
	m := make(sim.RateMap)
	for _, f := range st.ActiveFlows() {
		m[f.ID] = -1
	}
	return m, simtime.Infinity
}

func TestStallDetection(t *testing.T) {
	g, r, a, b := pair()
	specs := []sim.TaskSpec{{Arrival: 0, Deadline: simtime.Second,
		Flows: []sim.FlowSpec{{Src: a, Dst: b, Size: 1000}}}}
	eng := sim.New(g, r, idleSched{}, specs, sim.Config{})
	if _, err := eng.Run(); err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("expected stall error, got %v", err)
	}
}

// idleSched never transmits anything and never kills anything.
type idleSched struct{ sim.NopHooks }

func (idleSched) Name() string { return "idle" }

func (idleSched) Rates(*sim.State) (sim.RateMap, simtime.Time) {
	return nil, simtime.Infinity
}

// TestKillingEveryFlowInsideRatesIsNotAStall: a scheduler that terminates
// the last active flows from inside Rates (PDQ's Early Termination) leaves
// no rates and no horizon, and nothing to wait for either: the engine idles
// to the next arrival, and ends the run when there is none.
func TestKillingEveryFlowInsideRatesIsNotAStall(t *testing.T) {
	g, r, a, b := pair()
	specs := []sim.TaskSpec{
		{Arrival: 0, Deadline: simtime.Second,
			Flows: []sim.FlowSpec{{Src: a, Dst: b, Size: 1000}, {Src: a, Dst: b, Size: 1000}}},
		{Arrival: 5 * simtime.Millisecond, Deadline: simtime.Second,
			Flows: []sim.FlowSpec{{Src: a, Dst: b, Size: 1000}}},
	}
	eng := sim.New(g, r, killerSched{}, specs, sim.Config{Validate: true})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.EndTime != 5*simtime.Millisecond {
		t.Fatalf("run ended at t=%d, want the second arrival (5 ms)", res.EndTime)
	}
	for _, f := range res.Flows {
		if f.State != sim.FlowKilled {
			t.Fatalf("flow %d is %v, want killed", f.ID, f.State)
		}
	}
}

// killerSched kills every active flow inside Rates and transmits nothing.
type killerSched struct{ sim.NopHooks }

func (killerSched) Name() string { return "killer" }

func (killerSched) Rates(st *sim.State) (sim.RateMap, simtime.Time) {
	for _, f := range st.ActiveFlows() {
		st.KillFlow(f, "terminated early")
	}
	return nil, simtime.Infinity
}

func TestMaxTimeAborts(t *testing.T) {
	g, r, a, b := pair()
	specs := []sim.TaskSpec{{Arrival: 0, Deadline: simtime.Second,
		Flows: []sim.FlowSpec{{Src: a, Dst: b, Size: 10_000_000}}}}
	eng := sim.New(g, r, serialSched{}, specs, sim.Config{MaxTime: 1 * simtime.Millisecond})
	if _, err := eng.Run(); err == nil || !strings.Contains(err.Error(), "MaxTime") {
		t.Fatalf("expected MaxTime error, got %v", err)
	}
}

func TestDurationFor(t *testing.T) {
	cases := []struct {
		bytes, rate float64
		want        simtime.Time
	}{
		{0, 100, 0},
		{-5, 100, 0},
		{1000, 1e6, 1000},
		{1, 1e6, 1},
		{1, 2e6, 1}, // rounds up to 1 µs
		{1500, 1e6, 1500},
		{100, 0, simtime.Infinity},
	}
	for _, c := range cases {
		if got := sim.DurationFor(c.bytes, c.rate); got != c.want {
			t.Errorf("DurationFor(%g, %g) = %d, want %d", c.bytes, c.rate, got, c.want)
		}
	}
}

func TestFlowStateString(t *testing.T) {
	for s, want := range map[sim.FlowState]string{
		sim.FlowPending: "pending", sim.FlowActive: "active",
		sim.FlowDone: "done", sim.FlowKilled: "killed",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestDefaultECMPPathAssigned(t *testing.T) {
	g, r := topology.FatTree(topology.FatTreeSpec{K: 4, LinkCapacity: 1e6})
	hosts := g.Hosts()
	specs := []sim.TaskSpec{{Arrival: 0, Deadline: simtime.Second,
		Flows: []sim.FlowSpec{{Src: hosts[0], Dst: hosts[8], Size: 1000}}}}
	res := run(t, g, r, serialSched{}, specs)
	f := res.Flows[0]
	if !g.ValidPath(f.Path, f.Src, f.Dst) {
		t.Fatalf("default path invalid: %v", f.Path)
	}
	if !f.OnTime() {
		t.Fatal("flow should complete")
	}
}

// TestPropByteConservation: for random serialized workloads, every done
// flow carried exactly its size, and total bytes never exceed capacity*time.
func TestPropByteConservation(t *testing.T) {
	g, r, a, b := pair()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		var specs []sim.TaskSpec
		for i := 0; i < n; i++ {
			var flows []sim.FlowSpec
			for j := 0; j <= rng.Intn(3); j++ {
				flows = append(flows, sim.FlowSpec{Src: a, Dst: b, Size: int64(1 + rng.Intn(5000))})
			}
			specs = append(specs, sim.TaskSpec{
				Arrival:  simtime.Time(rng.Intn(10000)),
				Deadline: simtime.Time(1 + rng.Intn(20000)),
				Flows:    flows,
			})
		}
		eng := sim.New(g, r, serialSched{}, specs, sim.Config{Validate: true})
		res, err := eng.Run()
		if err != nil {
			return false
		}
		var total float64
		for _, fl := range res.Flows {
			if fl.State == sim.FlowDone && (fl.BytesSent < float64(fl.Size)-1e-6 || fl.BytesSent > float64(fl.Size)+1e-6) {
				return false
			}
			total += fl.BytesSent
		}
		// The single bottleneck can carry at most cap * elapsed.
		capBytes := 1e6 * float64(res.EndTime) / 1e6
		return total <= capBytes+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
