package core_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"taps/internal/core"
	"taps/internal/obs/declog"
	"taps/internal/obs/span"
	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
	"taps/internal/workload"
)

// spanScenario is a contended run: short deadlines on a small tree force
// the reject rule to discard tasks, so the span tree exercises rejection
// attribution (and, with preemption enabled, preemption edges).
func spanScenario() (*topology.Graph, topology.Routing, []sim.TaskSpec) {
	g, r := topology.SingleRootedTree(topology.SingleRootedTreeSpec{
		Pods: 2, RacksPerPod: 2, HostsPerRack: 3, LinkCapacity: topology.Gbps(1),
	})
	specs := workload.Generate(g, workload.Spec{
		Tasks: 16, MeanFlowsPerTask: 6, ArrivalRate: 400,
		MeanDeadline: 4 * simtime.Millisecond, MeanFlowSize: 256 * 1024,
		Seed: 7,
	})
	return g, topology.NewCachedRouting(r), specs
}

// runWithSpans executes one TAPS run with its decision log in memory,
// returning the span tree the log replays into.
func runWithSpans(t testing.TB) *span.Tree {
	g, r, specs := spanScenario()
	log := &declog.Writer{}
	eng := sim.New(g, r, core.New(core.DefaultConfig()), specs, sim.Config{RecordSegments: true, Sink: declog.Sink{Log: log}})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return replayed(t, log)
}

// replayed folds the decision log a run wrote into its span tree.
func replayed(t testing.TB, log *declog.Writer) *span.Tree {
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

// TestSpanTreeFullRun checks the span tree a contended TAPS run produces:
// every task and flow has a span with a terminal outcome, planning passes
// were recorded with per-flow plans, and every rejected task carries an
// attribution chain naming at least one blocking link and holder.
func TestSpanTreeFullRun(t *testing.T) {
	tree := runWithSpans(t)
	if len(tree.Tasks) == 0 || len(tree.Flows) == 0 || len(tree.Replans) == 0 {
		t.Fatalf("empty tree: %d tasks %d flows %d replans",
			len(tree.Tasks), len(tree.Flows), len(tree.Replans))
	}
	rejected := 0
	for i := range tree.Tasks {
		ts := &tree.Tasks[i]
		if ts.Outcome == span.OutcomeRunning {
			t.Errorf("task %d has no terminal outcome", ts.Task)
		}
		if ts.Outcome == span.OutcomeRejected {
			rejected++
			if len(ts.Blocks) == 0 {
				t.Errorf("rejected task %d has no attribution chain", ts.Task)
			}
			for _, blk := range ts.Blocks {
				if len(blk.Holders) == 0 && blk.Busy > 0 {
					t.Errorf("task %d: blocking link %d busy %d but no holders",
						ts.Task, blk.Link, blk.Busy)
				}
				for _, h := range blk.Holders {
					if h.Task == ts.Task {
						t.Errorf("task %d attributed to itself", ts.Task)
					}
				}
			}
			why := span.WhyText(tree, ts.Task)
			if why == "" {
				t.Errorf("task %d: empty why text", ts.Task)
			}
		}
	}
	if rejected == 0 {
		t.Fatal("scenario produced no rejections; attribution untested")
	}
	for i := range tree.Flows {
		fs := &tree.Flows[i]
		if !fs.Ended {
			t.Errorf("flow %d never ended", fs.Flow)
		}
		if fs.Task == span.NoTask {
			t.Errorf("flow %d has no task", fs.Flow)
		}
	}
	// Each replan pass carries per-flow plans with search detail.
	for i := range tree.Replans {
		rs := &tree.Replans[i]
		if rs.Seq != i+1 {
			t.Errorf("replan %d has seq %d", i, rs.Seq)
		}
		if len(rs.Plans) != rs.Flows {
			t.Errorf("replan #%d: %d plans for %d flows", rs.Seq, len(rs.Plans), rs.Flows)
		}
		for _, p := range rs.Plans {
			if p.PathIndex >= 0 && p.PathIndex >= p.Candidates {
				t.Errorf("replan #%d flow %d: path index %d of %d candidates",
					rs.Seq, p.Flow, p.PathIndex, p.Candidates)
			}
			if p.PathIndex >= 0 && len(p.Slices) == 0 && p.Finish > rs.Time {
				t.Errorf("replan #%d flow %d: placed but no slices", rs.Seq, p.Flow)
			}
		}
	}
}

// TestSpanTreeDeterministic runs the same scenario twice and requires
// bit-identical span trees: the recorded causal history is a function of
// the workload alone.
func TestSpanTreeDeterministic(t *testing.T) {
	if !reflect.DeepEqual(runWithSpans(t), runWithSpans(t)) {
		t.Fatal("span tree differs between two runs of the same scenario")
	}
}

// TestPreemptionSpans drives a hand-built preemption: a big slack task is
// admitted, then a small urgent task arrives whose plan the incumbent
// blocks; the reject rule sacrifices the (less complete) newcomer or
// preempts the incumbent. We assert whichever discard happened is causally
// recorded with attribution.
func TestPreemptionSpans(t *testing.T) {
	g, r := topology.SingleRootedTree(topology.SingleRootedTreeSpec{
		Pods: 1, RacksPerPod: 1, HostsPerRack: 3, LinkCapacity: topology.Gbps(1),
	})
	hosts := g.Hosts()
	mb := int64(1024 * 1024)
	specs := []sim.TaskSpec{
		// Task 0: 4 MB over one path (~32 ms of work), deadline 40 ms.
		{Arrival: 0, Deadline: 40 * simtime.Millisecond,
			Flows: []sim.FlowSpec{{Src: hosts[0], Dst: hosts[1], Size: 4 * mb}}},
		// Task 1 at 1 ms: same endpoints, slightly later absolute deadline
		// (41 ms), so EDF plans it *behind* task 0's occupancy — its 2 MB
		// (~16 ms) cannot fit in the ~8 ms left, and the reject rule
		// discards it with task 0 as the occupying holder.
		{Arrival: simtime.Millisecond, Deadline: 40 * simtime.Millisecond,
			Flows: []sim.FlowSpec{{Src: hosts[0], Dst: hosts[1], Size: 2 * mb}}},
	}
	log := &declog.Writer{}
	eng := sim.New(g, topology.NewCachedRouting(r), core.New(core.DefaultConfig()), specs, sim.Config{Sink: declog.Sink{Log: log}})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	tree := replayed(t, log)
	var discarded *span.TaskSpan
	for i := range tree.Tasks {
		ts := &tree.Tasks[i]
		if ts.Outcome == span.OutcomeRejected || ts.Outcome == span.OutcomePreempted {
			discarded = ts
		}
	}
	if discarded == nil {
		t.Fatal("contended pair produced no discard")
	}
	if len(discarded.Blocks) == 0 {
		t.Fatalf("discarded task %d has no attribution chain", discarded.Task)
	}
	holderFound := false
	for _, blk := range discarded.Blocks {
		for _, h := range blk.Holders {
			if h.Task != discarded.Task {
				holderFound = true
			}
		}
	}
	if !holderFound {
		t.Fatal("attribution names no other task as holder")
	}
	if discarded.Outcome == span.OutcomePreempted && discarded.PreemptedBy == span.NoTask {
		t.Fatal("preempted task lacks PreemptedBy edge")
	}
}

// TestRejectedArrivalRevokesNothing: a pass the reject rule throws away is
// never committed, so it grants nothing and revokes nothing. Task 0 runs
// to completion inside its grant; task 1 arrives alone with a deadline it
// cannot meet and is rejected. Its flow was planned by the tentative
// arrival pass only, so no window of the tree is revoked and no link
// track carries task 1, while -why still shows the plan that missed.
func TestRejectedArrivalRevokesNothing(t *testing.T) {
	g, r := topology.SingleRootedTree(topology.SingleRootedTreeSpec{
		Pods: 1, RacksPerPod: 1, HostsPerRack: 3, LinkCapacity: topology.Gbps(1),
	})
	hosts := g.Hosts()
	specs := []sim.TaskSpec{
		// 125 KB at 1 Gb/s: 1 ms of work, done long before task 1.
		{Arrival: 0, Deadline: 10 * simtime.Millisecond,
			Flows: []sim.FlowSpec{{Src: hosts[0], Dst: hosts[1], Size: 125_000}}},
		// 2 MB needs 16 ms; its deadline is 1 ms.
		{Arrival: 5 * simtime.Millisecond, Deadline: simtime.Millisecond,
			Flows: []sim.FlowSpec{{Src: hosts[0], Dst: hosts[1], Size: 2_000_000}}},
	}
	log := &declog.Writer{}
	eng := sim.New(g, topology.NewCachedRouting(r), core.New(core.DefaultConfig()), specs, sim.Config{Sink: declog.Sink{Log: log}})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	tree := replayed(t, log)
	if ts := tree.Task(1); ts == nil || ts.Outcome != span.OutcomeRejected {
		t.Fatalf("task 1: %+v, want rejected", ts)
	}
	if got := tree.RevokedByFlow(); len(got) != 0 {
		t.Fatalf("revoked windows %v; the only pass that planned task 1 was never committed", got)
	}
	var trace bytes.Buffer
	if err := span.WriteTraceEvents(&trace, tree); err != nil {
		t.Fatal(err)
	}
	// A link slice is named f<flow>/t<task>.
	if bytes.Contains(trace.Bytes(), []byte(`"revoked"`)) || bytes.Contains(trace.Bytes(), []byte(`/t1"`)) {
		t.Fatal("the trace carries a link slice of the uncommitted pass")
	}
	if why := span.WhyText(tree, 1); !strings.Contains(why, "MISSES") {
		t.Fatalf("-why lost the plan that missed:\n%s", why)
	}
}

// TestPlannerAllocsUnchangedWithSpansDisabled pins the planner's
// recording-disabled allocation budget — the entries of the pass and one
// clone of the winning slices per flow; the sweep and the occupancy it
// reads and writes allocate nothing once warm — so that adding span tracing
// costs nothing unless a decision log is attached.
func TestPlannerAllocsUnchangedWithSpansDisabled(t *testing.T) {
	g, r := topology.SingleRootedTree(topology.SingleRootedTreeSpec{
		Pods: 4, RacksPerPod: 4, HostsPerRack: 10, LinkCapacity: topology.Gbps(1),
	})
	cr := topology.NewCachedRouting(r)
	hosts := g.Hosts()
	baseline := map[int]float64{50: 51, 200: 201, 800: 801}
	for _, n := range []int{50, 200, 800} {
		reqs := make([]core.FlowReq, n)
		for i := range reqs {
			reqs[i] = core.FlowReq{
				Key:      uint64(i),
				Src:      hosts[i%len(hosts)],
				Dst:      hosts[(i*7+3)%len(hosts)],
				Bytes:    200 * 1024,
				Deadline: simtime.Time(20+i%40) * simtime.Millisecond,
			}
			if reqs[i].Src == reqs[i].Dst {
				reqs[i].Dst = hosts[(i+1)%len(hosts)]
			}
		}
		p := &core.Planner{Graph: g, Routing: cr, MaxPaths: 16}
		p.PlanAll(0, reqs) // warm the scratch arenas and routing cache
		got := testing.AllocsPerRun(3, func() { p.PlanAll(0, reqs) })
		if got > baseline[n] {
			t.Errorf("flows=%d: %.0f allocs/op, baseline %.0f — the spans-disabled planner regressed",
				n, got, baseline[n])
		}
	}
}
