package core

// White-box replay-determinism property test: at EVERY plan-state commit
// of a live run (the onCommit hook), the kernel's grants and occupancy must
// equal what the decision-log replayer reconstructs at the matching
// KindCommit record — and the span tree the log replays into must tell
// the run's story as the engine's own result does. This is the log's
// correctness contract: the flight recording alone is the world.

import (
	"path/filepath"
	"reflect"
	"testing"

	"taps/internal/obs/declog"
	"taps/internal/obs/span"
	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
	"taps/internal/workload"
)

// planSnap is one normalized plan-state snapshot: empty sets are elided so
// live and replayed maps compare equal regardless of which side kept a
// zero-length calendar for a key.
type planSnap struct {
	slices map[int64][]simtime.Interval
	occ    map[int32][]simtime.Interval
}

func snapIntervals(set simtime.IntervalSet) []simtime.Interval {
	ivs := set.Intervals()
	if len(ivs) == 0 {
		return nil
	}
	return append([]simtime.Interval(nil), ivs...)
}

func snapScheduler(s *Scheduler) planSnap {
	ps := planSnap{slices: make(map[int64][]simtime.Interval)}
	// The grants the kernel holds are those its occupancy still carries:
	// a flow that finished keeps its grant until the next full pass sweeps
	// it, a flow of a discarded task (gone from the table) holds nothing.
	for _, f := range s.k.live {
		if ivs := snapIntervals(f.Slices); ivs != nil && s.k.flows[f.Key] == f {
			ps.slices[int64(f.Key)] = ivs
		}
	}
	ps.occ = snapOccupancy(s.k.planner)
	return ps
}

// snapOccupancy is the planner's per-link occupancy, non-empty links only.
func snapOccupancy(p *Planner) map[int32][]simtime.Interval {
	occ := make(map[int32][]simtime.Interval)
	for l, set := range p.occ.links {
		if ivs := snapIntervals(set); ivs != nil {
			occ[int32(l)] = ivs
		}
	}
	return occ
}

func snapReplayer(rp *declog.Replayer) planSnap {
	grants, occ := rp.Tree().Plan()
	ps := planSnap{
		slices: make(map[int64][]simtime.Interval),
		occ:    make(map[int32][]simtime.Interval),
	}
	for id, set := range grants {
		if ivs := snapIntervals(set); ivs != nil {
			ps.slices[id] = ivs
		}
	}
	for l, set := range occ {
		if ivs := snapIntervals(set); ivs != nil {
			ps.occ[l] = ivs
		}
	}
	return ps
}

// replayScenario is the contended Fig. 6/7-style workload: short deadlines
// on a small tree force rejections (and preemptions), so the log carries
// every decision kind.
func replayScenario() (*topology.Graph, topology.Routing, []sim.TaskSpec) {
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

// checkReplayDeterminism runs one live simulation writing a decision log,
// snapshotting plan state at every commit, then replays the log and
// requires bit-identical state at every matching commit record.
func checkReplayDeterminism(t *testing.T, cfg Config, failures []sim.LinkFailure) {
	t.Helper()
	g, r, specs := replayScenario()
	path := filepath.Join(t.TempDir(), "run.dlg")
	dl, err := declog.Create(path, declog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sched := New(cfg)
	var live []planSnap
	sched.onCommit = func(st *sim.State) { live = append(live, snapScheduler(sched)) }
	eng := sim.New(g, r, sched, specs, sim.Config{
		RecordSegments: true, Sink: declog.Sink{Log: dl}, LinkFailures: failures,
	})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := dl.Close(); err != nil {
		t.Fatal(err)
	}
	if len(live) == 0 {
		t.Fatal("run committed no plan state; property untested")
	}

	recs, truncated, err := declog.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Fatal("cleanly closed log reports a torn tail")
	}
	rp := declog.NewReplayer()
	commits := 0
	for i := range recs {
		rp.Apply(&recs[i])
		if recs[i].Kind != declog.KindCommit {
			continue
		}
		if commits >= len(live) {
			t.Fatalf("log has more commit records than live commits (%d)", len(live))
		}
		if got, want := snapReplayer(rp), live[commits]; !reflect.DeepEqual(got, want) {
			t.Fatalf("commit %d (at t=%d): replayed plan state diverged\n got %+v\nwant %+v",
				commits, recs[i].Time, got, want)
		}
		commits++
	}
	if commits != len(live) {
		t.Fatalf("log carries %d commits, live run made %d", commits, len(live))
	}
	requireTreeTellsRun(t, rp.Tree(), res, len(failures))
}

// requireTreeTellsRun checks a replayed span tree against the engine's
// result: every task and flow has its span, each flow ended as the engine
// left it with the segments it carried, the discarded tasks are exactly
// the rejected or preempted ones, and every link failure is marked.
func requireTreeTellsRun(t *testing.T, tree *span.Tree, res *sim.Result, downs int) {
	t.Helper()
	if len(tree.Tasks) != len(res.Tasks) || len(tree.Flows) != len(res.Flows) || len(tree.LinkDowns) != downs {
		t.Fatalf("tree has %d tasks, %d flows, %d link failures; the run had %d, %d, %d",
			len(tree.Tasks), len(tree.Flows), len(tree.LinkDowns), len(res.Tasks), len(res.Flows), downs)
	}
	for _, f := range res.Flows {
		fs := tree.Flow(int64(f.ID))
		if fs == nil || !fs.Ended || fs.End != f.Finish || fs.Done != (f.State == sim.FlowDone) ||
			len(fs.Segments) != len(res.Segments[f.ID]) {
			t.Fatalf("flow %d: span %+v, engine state %v at %d with %d segments",
				f.ID, fs, f.State, f.Finish, len(res.Segments[f.ID]))
		}
	}
	for _, task := range res.Tasks {
		ts := tree.Task(int64(task.ID))
		discarded := ts != nil && (ts.Outcome == span.OutcomeRejected || ts.Outcome == span.OutcomePreempted)
		if ts == nil || discarded != task.Rejected || ts.Outcome == span.OutcomeRunning {
			t.Fatalf("task %d: span %+v, engine rejected=%v", task.ID, ts, task.Rejected)
		}
	}
}

func TestReplayMatchesLiveStateAtEveryCommit(t *testing.T) {
	checkReplayDeterminism(t, DefaultConfig(), nil)
}

func TestReplayMatchesLiveStateWithLinkFailure(t *testing.T) {
	checkReplayDeterminism(t, DefaultConfig(), []sim.LinkFailure{
		{At: 2 * simtime.Millisecond, Link: 0},
		{At: 5 * simtime.Millisecond, Link: 3},
	})
}

// TestReplayUntilIsPrefixConsistent checks the time-travel cutoff: replaying
// with -until T must equal replaying only the records stamped <= T (for the
// plan state, which ignores the segment bulk import).
func TestReplayUntilIsPrefixConsistent(t *testing.T) {
	g, r, specs := replayScenario()
	path := filepath.Join(t.TempDir(), "run.dlg")
	dl, err := declog.Create(path, declog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New(g, r, New(DefaultConfig()), specs, sim.Config{Sink: declog.Sink{Log: dl}})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if err := dl.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := declog.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cutoff := recs[len(recs)/2].Time
	until := declog.NewReplayer()
	until.SetUntil(cutoff)
	until.ApplyAll(recs)
	prefix := declog.NewReplayer()
	for i := range recs {
		if recs[i].Time <= cutoff {
			prefix.Apply(&recs[i])
		}
	}
	if !reflect.DeepEqual(snapReplayer(until), snapReplayer(prefix)) {
		t.Fatal("-until replay differs from replaying the literal record prefix")
	}
	whole := declog.NewReplayer()
	whole.ApplyAll(recs)
	for _, task := range whole.Tree().Tasks {
		if until.Tree().Task(task.Task).Accepted() != prefix.Tree().Task(task.Task).Accepted() {
			t.Fatalf("-until and the literal record prefix disagree on whether task %d is accepted", task.Task)
		}
	}
}
