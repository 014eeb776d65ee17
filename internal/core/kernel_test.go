package core

// Kernel tests on injected time: a fake data plane stands in for senders,
// every input carries the test's own now, and after every input the plan
// must hold no link-time twice (Kernel.LinkBusy — the checker the
// networked controller's Snapshot reports from).

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"taps/internal/obs/declog"
	"taps/internal/obs/span"
	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
	"taps/internal/workload"
)

// fakePlane is a data plane with perfect senders: each sends exactly what
// its committed slices carry.
type fakePlane struct {
	g         *topology.Graph
	k         *Kernel
	discarded []int64
}

func (p *fakePlane) Discard(_ simtime.Time, task, by int64) {
	p.discarded = append(p.discarded, task)
	if len(p.k.Flows(task)) == 0 {
		panic("Discard: the kernel forgot the task before telling the adapter")
	}
}

// run transmits until to and returns the flows in flight whose grants
// have carried them to the end.
func (p *fakePlane) run(to simtime.Time) (finished []uint64) {
	for _, f := range p.k.live {
		if f.Done {
			continue
		}
		sent := p.g.MinCapacity(f.Path) * float64(f.Slices.OverlapTotal(simtime.Interval{Start: 0, End: to})) / 1e6
		if f.Bytes-sent <= 1e-9 {
			finished = append(finished, f.Key)
		}
	}
	return finished
}

func newTestKernel(cfg Config) (*Kernel, *fakePlane, []topology.NodeID) {
	g, r := topology.FatTree(topology.FatTreeSpec{K: 4, LinkCapacity: topology.Gbps(1)})
	p := &fakePlane{g: g}
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
		for _, fin := range plane.run(next) {
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

// TestKernelSpentFlowHoldsNothing: a flow whose grant has carried it to
// the end before its FlowFinished arrives is neither planned nor counted
// as a miss, and the commit leaves it holding no link time.
func TestKernelSpentFlowHoldsNothing(t *testing.T) {
	k, _, hosts := newTestKernel(DefaultConfig())
	// 8 ms of work, granted [0, 8 ms); the next input comes at 12 ms.
	k.TaskArrived(0, 1, 50e3, []FlowSpec{{Key: 1, Src: hosts[0], Dst: hosts[5], Size: 1e6}})
	if d, _ := k.TaskArrived(12e3, 2, 30e3, []FlowSpec{{Key: 2, Src: hosts[0], Dst: hosts[5], Size: 1e6}}); d != Accept {
		t.Fatalf("decision %v, want accept", d)
	}
	requireSound(t, k, 12e3, "arrival beside a spent flow")
	if f := k.Flow(1); f.Done || f.Path != nil || !f.Slices.Empty() {
		t.Fatalf("spent flow: done=%v path=%v slices=%v; want in flight and holding nothing", f.Done, f.Path, f.Slices.Intervals())
	}
	if got := k.Flow(2).Slices.Intervals(); len(got) != 1 || got[0].Start != 12e3 {
		t.Fatalf("newcomer slices %v, want one window from t=12000", got)
	}
	if _, flows, _ := k.LinkBusy(); flows != 2 {
		t.Fatalf("%d flows in flight, want 2 (no FlowFinished arrived)", flows)
	}
	if k.Fraction(1) != 1 {
		t.Fatalf("fraction of the spent task = %g, want 1", k.Fraction(1))
	}
}

// TestKernelReplanStartsFromFullSize: a re-issue is for senders that lost
// their reply, and with it the slices it granted, so a Replan plans the
// task's flows at their full size however much of the lost grant has
// passed. A flow of another task keeps what its grant carried.
func TestKernelReplanStartsFromFullSize(t *testing.T) {
	k, _, hosts := newTestKernel(DefaultConfig())
	// Two 8 ms flows in different pods, both granted [0, 8 ms).
	k.TaskArrived(0, 1, 50e3, []FlowSpec{{Key: 1, Src: hosts[0], Dst: hosts[5], Size: 1e6}})
	k.TaskArrived(0, 2, 50e3, []FlowSpec{{Key: 2, Src: hosts[8], Dst: hosts[12], Size: 1e6}})
	k.Replan(3e3, 1)
	requireSound(t, k, 3e3, "re-issue")
	if f := k.Flow(1); f.Bytes != 1e6 || f.Slices.Total() != 8e3 {
		t.Fatalf("re-issued flow: %g bytes in %d us, want its full 1 MB in 8 ms", f.Bytes, f.Slices.Total())
	}
	if f := k.Flow(2); f.Bytes != 625e3 || f.Slices.Total() != 5e3 {
		t.Fatalf("other flow: %g bytes in %d us, want the 625 KB left after 3 ms in 5 ms", f.Bytes, f.Slices.Total())
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

// TestKernelProgressMatchesEngine: the kernel sizes every flow from its
// own grants, never from the engine's byte counters. At every commit of
// every Fig. 6/7 laptop cell, each flow the pass planned or found spent
// must hold what the engine's counters say it has left (0 once the engine
// no longer runs it), to within one µs at line rate. With the reject rule
// off, flows also miss their deadlines and are killed mid-grant.
func TestKernelProgressMatchesEngine(t *testing.T) {
	seeds := int64(10)
	if testing.Short() {
		seeds = 1
	}
	tree, treeR := topology.SingleRootedTree(topology.SingleRootedTreeSpec{
		Pods: 4, RacksPerPod: 4, HostsPerRack: 10, LinkCapacity: topology.Gbps(1),
	})
	fat, fatR := topology.FatTree(topology.FatTreeSpec{K: 4, LinkCapacity: topology.Gbps(1)})
	figs := []struct {
		g            *topology.Graph
		r            topology.Routing
		flowsPerTask int
	}{
		{tree, topology.NewCachedRouting(treeR), 60}, // Fig. 6
		{fat, topology.NewCachedRouting(fatR), 24},   // Fig. 7
	}
	for _, ruleOff := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.DisableRejectRule = ruleOff
		checks, worst := 0, 0.0
		for _, fig := range figs {
			for _, deadline := range []float64{20, 30, 40, 50, 60} {
				for seed := int64(1); seed <= seeds; seed++ {
					specs := workload.Generate(fig.g, workload.Spec{
						Tasks: 30, MeanFlowsPerTask: fig.flowsPerTask, ArrivalRate: 100,
						MeanDeadline: simtime.FromMillis(deadline), Seed: seed,
					})
					sched := New(cfg)
					check := func(st *sim.State, flows []*Flow) {
						for _, f := range flows {
							sf := st.Flow(sim.FlowID(f.Key))
							want := sf.Remaining()
							if sf.State != sim.FlowActive {
								want = 0
							}
							diff := math.Abs(f.Bytes - want)
							if tol := st.Graph().MinCapacity(sf.Path) / 1e6; diff > tol {
								t.Fatalf("rule off %v, %d ms, seed %d, t=%d: flow %d sized %g bytes, the engine has %g left",
									ruleOff, int(deadline), seed, st.Now(), f.Key, f.Bytes, want)
							}
							checks++
							worst = max(worst, diff)
						}
					}
					sched.onCommit = func(st *sim.State) {
						check(st, sched.k.order)
						check(st, sched.k.spent)
					}
					if _, err := sim.New(fig.g, fig.r, sched, specs, sim.Config{MaxTime: 4e12}).Run(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if checks == 0 {
			t.Fatalf("rule off %v: no flow checked", ruleOff)
		}
		t.Logf("rule off %v: %d checks, worst difference %g bytes", ruleOff, checks, worst)
	}
}

// TestReplanRecordAllocsPerPass pins what a warm planning pass costs with
// an in-memory decision log on: the planner's own budget (the entries and
// one clone of the winning slices per flow) and a few allocations for the
// record itself, but nothing per flow for the record's plans — their paths
// and slices live in buffers the kernel reuses.
func TestReplanRecordAllocsPerPass(t *testing.T) {
	k, _, hosts := newTestKernel(DefaultConfig())
	k.Sink = &declog.Sink{Log: &declog.Writer{}}
	rng := rand.New(rand.NewSource(1))
	for task := int64(0); task < 20; task++ {
		specs := make([]FlowSpec, 5)
		for i := range specs {
			src, dst := rng.Intn(len(hosts)), rng.Intn(len(hosts)-1)
			if dst >= src {
				dst++
			}
			specs[i] = FlowSpec{Key: uint64(task*10) + uint64(i), Src: hosts[src], Dst: hosts[dst], Size: 10e3}
		}
		if d, _ := k.TaskArrived(0, task, 10*simtime.Second, specs); d != Accept {
			t.Fatalf("task %d: %v", task, d)
		}
	}
	flows := len(k.order)
	if flows != 100 {
		t.Fatalf("%d flows in the pass, want 100", flows)
	}
	k.plan(0, span.ReplanArrival, 0) // warm the span buffers
	got := testing.AllocsPerRun(20, func() { k.plan(0, span.ReplanArrival, 0) })
	if budget := float64(flows + 1 + 4); got > budget {
		t.Fatalf("%.0f allocs per pass over %d flows, budget %.0f", got, flows, budget)
	}
}
