package taps_test

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"taps"
)

func smallNet() taps.Network {
	return taps.NewSingleRootedTree(2, 2, 4)
}

func smallWorkload(net taps.Network) []taps.TaskSpec {
	return taps.GenerateWorkload(net, taps.WorkloadSpec{
		Tasks:            8,
		MeanFlowsPerTask: 6,
		MeanDeadline:     20 * taps.Millisecond,
		MeanFlowSize:     100 * 1024,
		Seed:             5,
	})
}

func TestFacadeEndToEnd(t *testing.T) {
	net := smallNet()
	tasks := smallWorkload(net)
	for _, mk := range []func() taps.Scheduler{
		taps.NewTAPS, taps.NewFairSharing, taps.NewD3,
		taps.NewPDQ, taps.NewBaraat, taps.NewVarys,
	} {
		s := mk()
		res, err := taps.RunValidated(net, s, tasks)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		sum := taps.Summarize(res)
		if sum.Tasks != 8 {
			t.Fatalf("%s: %d tasks", s.Name(), sum.Tasks)
		}
		if r := sum.TaskCompletionRatio(); r < 0 || r > 1 {
			t.Fatalf("%s: ratio %g", s.Name(), r)
		}
	}
}

func TestFacadeTopologies(t *testing.T) {
	if got := len(taps.NewSingleRootedTree(2, 3, 4).Hosts()); got != 24 {
		t.Fatalf("tree hosts = %d", got)
	}
	if got := len(taps.NewFatTree(4).Hosts()); got != 16 {
		t.Fatalf("fat-tree hosts = %d", got)
	}
	if got := len(taps.NewTestbed().Hosts()); got != 8 {
		t.Fatalf("testbed hosts = %d", got)
	}
}

func TestFacadeTAPSWithConfig(t *testing.T) {
	net := smallNet()
	tasks := smallWorkload(net)
	cfg := taps.TAPSConfig{MaxPaths: 4, DisableRejectRule: true}
	res, err := taps.RunValidated(net, taps.NewTAPSWith(cfg), tasks)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range res.Tasks {
		if task.Rejected {
			t.Fatal("reject rule disabled: no task may be rejected")
		}
	}
}

func TestFacadeDeterminism(t *testing.T) {
	net := smallNet()
	tasks := smallWorkload(net)
	a, err := taps.Run(net, taps.NewTAPS(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	b, err := taps.Run(net, taps.NewTAPS(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := taps.Summarize(a), taps.Summarize(b)
	if sa != sb {
		t.Fatalf("non-deterministic: %+v vs %+v", sa, sb)
	}
}

func TestFacadeBackgroundTraffic(t *testing.T) {
	// Cross traffic (§III-B dynamics) must not wedge any policy, and
	// every run must terminate.
	net := smallNet()
	tasks := taps.GenerateWorkload(net, taps.WorkloadSpec{
		Tasks:            6,
		MeanFlowsPerTask: 4,
		MeanDeadline:     20 * taps.Millisecond,
		MeanFlowSize:     80 * 1024,
		BackgroundTasks:  4,
		Seed:             9,
	})
	for _, mk := range []func() taps.Scheduler{
		taps.NewTAPS, taps.NewFairSharing, taps.NewD3,
		taps.NewPDQ, taps.NewBaraat, taps.NewVarys,
	} {
		s := mk()
		res, err := taps.RunValidated(net, s, tasks)
		if err != nil {
			t.Fatalf("%s with background traffic: %v", s.Name(), err)
		}
		if len(res.Tasks) != 10 {
			t.Fatalf("%s: tasks = %d", s.Name(), len(res.Tasks))
		}
	}
}

func TestFacadeRunWithOptions(t *testing.T) {
	net := smallNet()
	tasks := smallWorkload(net)
	res, err := taps.RunWithOptions(net, taps.NewTAPS(), tasks, taps.RunOptions{
		Validate:       true,
		RecordSegments: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Segments == nil {
		t.Fatal("segments not recorded")
	}
	gantt := taps.Gantt(res, 40)
	if len(gantt) == 0 {
		t.Fatal("empty gantt")
	}
	report, err := taps.Analyze(net, res, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(report) == 0 {
		t.Fatal("empty report")
	}
}

func TestFacadeLinkFailure(t *testing.T) {
	net := taps.NewFatTree(4)
	hosts := net.Hosts()
	tasks := []taps.TaskSpec{{Arrival: 0, Deadline: 50 * taps.Millisecond,
		Flows: []taps.FlowSpec{{Src: hosts[0], Dst: hosts[12], Size: 500_000}}}}
	// Discover the planned path, then kill its core uplink mid-run.
	dry, err := taps.RunWithOptions(net, taps.NewTAPS(), tasks, taps.RunOptions{RecordSegments: true})
	if err != nil {
		t.Fatal(err)
	}
	failed := dry.Flows[0].Path[2]
	res, err := taps.RunWithOptions(net, taps.NewTAPS(), tasks, taps.RunOptions{
		Validate: true,
		LinkFailures: []taps.LinkFailure{
			{At: 1 * taps.Millisecond, Link: failed},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flows[0].OnTime() {
		t.Fatal("TAPS should reroute around the failure")
	}
}

func TestFacadeServerCentricNetworks(t *testing.T) {
	for _, net := range []taps.Network{taps.NewBCube(4, 1)} {
		tasks := taps.GenerateWorkload(net, taps.WorkloadSpec{
			Tasks: 5, MeanFlowsPerTask: 3, Seed: 4,
		})
		res, err := taps.RunValidated(net, taps.NewTAPS(), tasks)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tasks) != 5 {
			t.Fatalf("tasks = %d", len(res.Tasks))
		}
	}
}

func TestFacadeHeadline(t *testing.T) {
	// The paper in one assertion: TAPS completes at least as many tasks
	// as Fair Sharing on the default-ish workload.
	net := smallNet()
	tasks := smallWorkload(net)
	rt, err := taps.Run(net, taps.NewTAPS(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := taps.Run(net, taps.NewFairSharing(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if taps.Summarize(rt).TasksCompleted < taps.Summarize(rf).TasksCompleted {
		t.Fatalf("TAPS %d < FairSharing %d tasks",
			taps.Summarize(rt).TasksCompleted, taps.Summarize(rf).TasksCompleted)
	}
}

// replayTree reads back the decision log at path and replays it into the
// run's span tree.
func replayTree(t *testing.T, path string) *taps.SpanTree {
	t.Helper()
	recs, truncated, err := taps.ReadDecisionLog(path)
	if err != nil || truncated {
		t.Fatalf("read log: err=%v truncated=%v", err, truncated)
	}
	rp := taps.NewDecisionReplayer()
	rp.ApplyAll(recs)
	return rp.Tree()
}

func TestFacadeSpanTracing(t *testing.T) {
	net := smallNet()
	tasks := smallWorkload(net)
	path := filepath.Join(t.TempDir(), "run.dlg")
	w, err := taps.CreateDecisionLog(path, net)
	if err != nil {
		t.Fatal(err)
	}
	res, err := taps.RunWithOptions(net, taps.NewTAPS(), tasks, taps.RunOptions{
		RecordSegments: true, DecLog: w,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tree := replayTree(t, path)
	if len(tree.Tasks) != 8 || len(tree.Replans) == 0 {
		t.Fatalf("span tree: %d tasks, %d replans", len(tree.Tasks), len(tree.Replans))
	}
	var buf bytes.Buffer
	if err := taps.WriteTrace(&buf, tree); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) || !bytes.Contains(buf.Bytes(), []byte("traceEvents")) {
		t.Fatal("WriteTrace did not emit trace_event JSON")
	}
	why := taps.Why(tree, tree.Tasks[0].Task)
	if why == "" || !strings.Contains(why, "task 0") {
		t.Fatalf("Why output: %q", why)
	}
	if g := taps.GanttWithSpans(res, tree, 40); !strings.Contains(g, "revoked") {
		t.Fatalf("GanttWithSpans lacks the span legend:\n%s", g)
	}
}

// TestFacadeDecisionLogReplaysToTree: naming the log once, in RunOptions,
// is all it takes — TAPS's planning passes and attribution chains reach
// it, and it replays into a tree whose discarded tasks are exactly the
// ones the run rejected or preempted.
func TestFacadeDecisionLogReplaysToTree(t *testing.T) {
	net := smallNet()
	tasks := taps.GenerateWorkload(net, taps.WorkloadSpec{
		Tasks: 24, MeanFlowsPerTask: 6, MeanDeadline: 4 * taps.Millisecond,
		MeanFlowSize: 100 * 1024, Seed: 5,
	})
	path := filepath.Join(t.TempDir(), "run.dlg")
	w, err := taps.CreateDecisionLog(path, net)
	if err != nil {
		t.Fatal(err)
	}
	res, err := taps.RunWithOptions(net, taps.NewTAPS(), tasks, taps.RunOptions{
		RecordSegments: true, DecLog: w,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tree := replayTree(t, path)
	chains := 0
	for i := range tree.Tasks {
		if len(tree.Tasks[i].Blocks) > 0 {
			chains++
		}
	}
	if len(tree.Replans) == 0 || chains == 0 {
		t.Fatalf("replayed tree has %d planning passes and %d attribution chains; the scheduler half is missing", len(tree.Replans), chains)
	}
	if len(tree.Tasks) != len(res.Tasks) {
		t.Fatalf("replayed tree has %d tasks, the run %d", len(tree.Tasks), len(res.Tasks))
	}
	for _, task := range res.Tasks {
		ts := tree.Task(int64(task.ID))
		discarded := ts != nil && (ts.Outcome.String() == "rejected" || ts.Outcome.String() == "preempted")
		if discarded != task.Rejected {
			t.Fatalf("task %d: span %+v, run rejected=%v", task.ID, ts, task.Rejected)
		}
	}
}
