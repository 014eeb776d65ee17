package core

// Kernel tests on injected time: a fake data plane stands in for senders,
// every input carries the test's own now, and after every input the plan
// must hold no link-time twice (Kernel.LinkBusy — the checker the
// networked controller's Snapshot reports from).

import (
	"math/rand"
	"reflect"
	"testing"

	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// fakePlane is a data plane with perfect senders: run moves every flow in
// flight forward by what its committed slices carry in an interval.
type fakePlane struct {
	g         *topology.Graph
	k         *Kernel
	left      map[uint64]float64
	discarded []int64
}

func (p *fakePlane) Remaining(f *Flow, _ simtime.Time) float64 {
	if left, ok := p.left[f.Key]; ok {
		return left
	}
	return float64(f.Size)
}

func (p *fakePlane) Discard(_ simtime.Time, task, by int64) {
	p.discarded = append(p.discarded, task)
	if len(p.k.Flows(task)) == 0 {
		panic("Discard: the kernel forgot the task before telling the adapter")
	}
}

// run transmits over [from, to) and returns the flows that completed.
func (p *fakePlane) run(from, to simtime.Time) (finished []uint64) {
	for _, f := range p.k.live {
		if f.Done || f.Path == nil {
			continue
		}
		left := p.Remaining(f, from)
		if left <= 0 {
			continue
		}
		sent := p.g.MinCapacity(f.Path) * float64(f.Slices.OverlapTotal(simtime.Interval{Start: from, End: to})) / 1e6
		if left -= sent; left <= 1e-9 {
			left = 0
			finished = append(finished, f.Key)
		}
		p.left[f.Key] = left
	}
	return finished
}

func newTestKernel(cfg Config) (*Kernel, *fakePlane, []topology.NodeID) {
	g, r := topology.FatTree(topology.FatTreeSpec{K: 4, LinkCapacity: topology.Gbps(1)})
	p := &fakePlane{g: g, left: make(map[uint64]float64)}
	p.k = NewKernel(g, topology.NewCachedRouting(r), cfg, p)
	return p.k, p, g.Hosts()
}

// requireDisjoint fails if two flows in flight hold the same link at the
// same instant.
func requireDisjoint(t *testing.T, k *Kernel, now simtime.Time, what string) {
	t.Helper()
	if _, _, overlaps := k.LinkBusy(); overlaps != 0 {
		t.Fatalf("%s at t=%d: %d link-time overlaps in the committed plan", what, now, overlaps)
	}
}

// requireSound is requireDisjoint for an input that committed a pass at
// now: no grant may then reach back before now either.
func requireSound(t *testing.T, k *Kernel, now simtime.Time, what string) {
	t.Helper()
	requireDisjoint(t, k, now, what)
	for _, f := range k.live {
		if ivs := f.Slices.Intervals(); !f.Done && len(ivs) > 0 && ivs[0].Start < now {
			t.Fatalf("%s at t=%d: flow %d holds a slice from %d, before the pass that granted it", what, now, f.Key, ivs[0].Start)
		}
	}
}

// grants snapshots the committed plan: flow -> slices.
func grants(k *Kernel) map[uint64][]simtime.Interval {
	out := make(map[uint64][]simtime.Interval)
	for _, f := range k.live {
		if !f.Done && f.Path != nil {
			out[f.Key] = append([]simtime.Interval(nil), f.Slices.Intervals()...)
		}
	}
	return out
}

// TestKernelStormStaysCollisionFree drives an RCD-style close-to-deadline
// storm with moving time, progress, finishes, rejections and duplicate
// probes through the kernel, checking the plan after every single input.
func TestKernelStormStaysCollisionFree(t *testing.T) {
	k, plane, hosts := newTestKernel(DefaultConfig())
	rng := rand.New(rand.NewSource(11))
	now := simtime.Time(0)
	var key uint64
	rejects := 0
	for task := int64(1); task <= 400; task++ {
		next := now + simtime.Time(rng.Intn(3000))
		for _, fin := range plane.run(now, next) {
			k.FlowFinished(next, fin, 0)
			requireDisjoint(t, k, next, "flow finished")
		}
		now = next
		specs := make([]FlowSpec, 1+rng.Intn(3))
		for i := range specs {
			src := rng.Intn(len(hosts))
			dst := (src + 1 + rng.Intn(len(hosts)-1)) % len(hosts)
			key++
			specs[i] = FlowSpec{Key: key, Src: hosts[src], Dst: hosts[dst], Size: 500e3 + rng.Int63n(1500e3)}
		}
		deadline := now + 20e3 + simtime.Time(rng.Intn(40e3))
		d, _ := k.TaskArrived(now, task, deadline, specs)
		requireSound(t, k, now, "task arrived")
		if d == RejectNew {
			rejects++
			if k.Flows(task) != nil || k.Flow(specs[0].Key) != nil {
				t.Fatalf("rejected task %d is still in the flow table", task)
			}
		}
		if d != RejectNew && task%17 == 0 {
			k.Replan(now, task)
			requireSound(t, k, now, "duplicate probe")
		}
	}
	if rejects == 0 || rejects == 400 {
		t.Fatalf("storm rejected %d of 400 tasks; the reject path or the accept path went untested", rejects)
	}
	if len(plane.discarded) != rejects {
		t.Fatalf("adapter heard of %d discards, kernel rejected %d", len(plane.discarded), rejects)
	}
}

// TestKernelRejectLeavesPlanAsItWas: a pass that ends in a rejection is
// never installed, not even in part — the committed plan afterwards is the
// plan of the survivors alone, which at the same instant is the plan they
// had.
func TestKernelRejectLeavesPlanAsItWas(t *testing.T) {
	k, plane, hosts := newTestKernel(DefaultConfig())
	for task := int64(1); task <= 6; task++ {
		specs := []FlowSpec{{Key: uint64(task), Src: hosts[0], Dst: hosts[task], Size: 1e6}}
		if d, _ := k.TaskArrived(0, task, 60e3, specs); d != Accept {
			t.Fatalf("task %d: %v, want accept", task, d)
		}
	}
	before := grants(k)
	// Two 8 ms flows on the shared uplink, due in 10 ms: they sort ahead of
	// the six admitted flows and displace every one of them in the
	// tentative pass, yet the task's own second flow cannot make it.
	d, _ := k.TaskArrived(0, 7, 10e3, []FlowSpec{
		{Key: 71, Src: hosts[0], Dst: hosts[9], Size: 1e6},
		{Key: 72, Src: hosts[0], Dst: hosts[10], Size: 1e6},
	})
	if d != RejectNew {
		t.Fatalf("decision %v, want reject", d)
	}
	requireSound(t, k, 0, "rejected arrival")
	if after := grants(k); !reflect.DeepEqual(before, after) {
		t.Fatalf("a rejected arrival changed the committed plan\nbefore %v\n after %v", before, after)
	}
	if len(plane.discarded) != 1 || plane.discarded[0] != 7 {
		t.Fatalf("discards %v, want [7]", plane.discarded)
	}
}

// TestKernelPreemptsForNewcomerWithProgress: a newcomer part of whose
// bytes never needed the network (a local transfer, delivered on arrival)
// is ahead of an admitted task that has sent nothing, so when its urgent
// flow pushes that task past its deadline the rule sacrifices the
// incumbent.
func TestKernelPreemptsForNewcomerWithProgress(t *testing.T) {
	k, plane, hosts := newTestKernel(DefaultConfig())
	// 10 ms of work against a 10 ms deadline: zero slack.
	if d, _ := k.TaskArrived(0, 1, 10e3, []FlowSpec{{Key: 1, Src: hosts[0], Dst: hosts[5], Size: 1_250_000}}); d != Accept {
		t.Fatalf("incumbent: %v", d)
	}
	d, victim := k.TaskArrived(0, 2, 2e3, []FlowSpec{
		{Key: 2, Src: hosts[0], Dst: hosts[0], Size: 10e6},
		{Key: 3, Src: hosts[0], Dst: hosts[5], Size: 125_000},
	})
	if d != Preempt || victim != 1 {
		t.Fatalf("decision %v victim %d, want preempt of task 1", d, victim)
	}
	requireSound(t, k, 0, "preemption")
	if len(plane.discarded) != 1 || plane.discarded[0] != 1 {
		t.Fatalf("discards %v, want [1]", plane.discarded)
	}
	if f := k.Flow(2); f == nil || !f.Done {
		t.Fatal("the local transfer should be finished on arrival")
	}
	if f := k.Flow(3); f == nil || f.Path == nil || f.Slices.Total() != 1000 {
		t.Fatalf("the newcomer's network flow was not granted its 1 ms: %+v", f)
	}
	if k.Flow(1) != nil {
		t.Fatal("the victim is still in the flow table")
	}
}

// TestKernelSpentFlowHoldsNothing: a flow the data plane reports complete
// before its FlowFinished arrives is neither planned nor counted as a
// miss, and the commit leaves it holding no link time.
func TestKernelSpentFlowHoldsNothing(t *testing.T) {
	k, plane, hosts := newTestKernel(DefaultConfig())
	k.TaskArrived(0, 1, 50e3, []FlowSpec{{Key: 1, Src: hosts[0], Dst: hosts[5], Size: 1e6}})
	plane.left[1] = 0
	if d, _ := k.TaskArrived(4e3, 2, 20e3, []FlowSpec{{Key: 2, Src: hosts[0], Dst: hosts[5], Size: 1e6}}); d != Accept {
		t.Fatalf("decision %v, want accept", d)
	}
	requireSound(t, k, 4e3, "arrival beside a spent flow")
	if f := k.Flow(1); f.Done || f.Path != nil || !f.Slices.Empty() {
		t.Fatalf("spent flow: done=%v path=%v slices=%v; want in flight and holding nothing", f.Done, f.Path, f.Slices.Intervals())
	}
	if got := k.Flow(2).Slices.Intervals(); len(got) != 1 || got[0].Start != 4e3 {
		t.Fatalf("newcomer slices %v, want one window from t=4000", got)
	}
	if _, flows, _ := k.LinkBusy(); flows != 2 {
		t.Fatalf("%d flows in flight, want 2 (no FlowFinished arrived)", flows)
	}
	if k.Fraction(1) != 1 {
		t.Fatalf("fraction of the spent task = %g, want 1", k.Fraction(1))
	}
}

// TestKernelFinishedFlowFreesItsSlices: once FlowFinished has taken a flow
// out of flight, the next pass plans as if it had never held anything — a
// flow queued behind it slides into the freed window and the newcomer
// takes the place after that.
func TestKernelFinishedFlowFreesItsSlices(t *testing.T) {
	k, _, hosts := newTestKernel(DefaultConfig())
	// Same host pair, one shared uplink, 0.8 ms each: flow 2 queues behind
	// flow 1.
	k.TaskArrived(0, 1, 10e3, []FlowSpec{{Key: 1, Src: hosts[0], Dst: hosts[1], Size: 100_000}})
	k.TaskArrived(0, 2, 20e3, []FlowSpec{{Key: 2, Src: hosts[0], Dst: hosts[1], Size: 100_000}})
	if got := k.Flow(2).Slices.Intervals(); len(got) != 1 || got[0].Start != 800 {
		t.Fatalf("scenario broken: flow 2 holds %v, want one window from t=800 behind flow 1", got)
	}
	k.FlowFinished(0, 1, 0)
	if d, _ := k.TaskArrived(0, 3, 30e3, []FlowSpec{{Key: 3, Src: hosts[0], Dst: hosts[1], Size: 100_000}}); d != Accept {
		t.Fatalf("decision %v, want accept", d)
	}
	requireSound(t, k, 0, "arrival after a finish")
	for key, want := range map[uint64]simtime.Interval{2: {Start: 0, End: 800}, 3: {Start: 800, End: 1600}} {
		if got := k.Flow(key).Slices.Intervals(); len(got) != 1 || got[0] != want {
			t.Fatalf("flow %d holds %v after flow 1 finished, want %v", key, got, want)
		}
	}
	if _, flows, _ := k.LinkBusy(); flows != 2 {
		t.Fatalf("%d flows in flight, want 2", flows)
	}
}

// TestKernelFractionCountsDeliveredBytes: a flow whose sender gave up
// counts for what it delivered, not for its size; a local transfer counts
// in full.
func TestKernelFractionCountsDeliveredBytes(t *testing.T) {
	k, _, hosts := newTestKernel(DefaultConfig())
	k.TaskArrived(0, 1, 50e3, []FlowSpec{
		{Key: 1, Src: hosts[0], Dst: hosts[5], Size: 1e6},
		{Key: 2, Src: hosts[1], Dst: hosts[6], Size: 1e6},
		{Key: 3, Src: hosts[2], Dst: hosts[2], Size: 2e6},
	})
	if got := k.Fraction(1); got != 0.5 {
		t.Fatalf("fraction on arrival = %g, want 0.5 (the local transfer)", got)
	}
	k.FlowFinished(1e3, 1, 0)
	k.FlowFinished(1e3, 2, 750e3)
	if got := k.Fraction(1); got != 0.8125 {
		t.Fatalf("fraction = %g, want 0.8125: 1 MB + 250 KB + 2 MB of 4 MB", got)
	}
	k.EachInFlight(func(f *Flow) { t.Fatalf("flow %d is still in flight", f.Key) })
}

// TestKernelFractionMatchesEngineCounters: at every commit of a simulated
// run — flows finishing, missing deadlines, and being cut off by link
// failures along the way — the completion fraction the reject rule compares
// is the one the engine's byte counters give.
func TestKernelFractionMatchesEngineCounters(t *testing.T) {
	g, r, specs := replayScenario()
	sched := New(DefaultConfig())
	commits, cut := 0, 0
	sched.onCommit = func(st *sim.State) {
		commits++
		for task, flows := range sched.k.tasks {
			if got, want := sched.k.Fraction(task), st.TaskCompletionFraction(sim.TaskID(task)); got != want {
				t.Fatalf("commit %d at t=%d: task %d fraction %g, the engine says %g", commits, st.Now(), task, got, want)
			}
			for _, f := range flows {
				if sf := st.Flow(sim.FlowID(f.Key)); sf.State == sim.FlowKilled && sf.Remaining() > 0 && f.Done {
					cut++
				}
			}
		}
	}
	eng := sim.New(g, r, sched, specs, sim.Config{LinkFailures: []sim.LinkFailure{
		{At: 2 * simtime.Millisecond, Link: 0},
		{At: 5 * simtime.Millisecond, Link: 3},
	}})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if commits == 0 || cut == 0 {
		t.Fatalf("%d commits, %d sightings of a flow cut short in a live task; property untested", commits, cut)
	}
}
