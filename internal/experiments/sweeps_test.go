package experiments

import (
	"testing"

	"taps/internal/metrics"
	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
	"taps/internal/workload"
)

func checkSweep(t *testing.T, res *SweepResult, err error, xPoints int, schedulers []string) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	for _, group := range [][]metrics.Series{
		res.TaskCompletion, res.FlowCompletion,
		res.AppThroughput, res.WastedBandwidth,
	} {
		if len(group) != len(schedulers) {
			t.Fatalf("%s: %d series, want %d", res.Figure, len(group), len(schedulers))
		}
		for _, s := range group {
			if len(s.X) != xPoints || len(s.Y) != xPoints {
				t.Fatalf("%s %s: %d/%d points, want %d", res.Figure, s.Label, len(s.X), len(s.Y), xPoints)
			}
			for i, y := range s.Y {
				if y < 0 || y > 1 {
					t.Fatalf("%s %s: ratio out of range at %g: %g", res.Figure, s.Label, s.X[i], y)
				}
			}
		}
	}
}

func tapsVsFairSharing(t *testing.T, res *SweepResult) {
	t.Helper()
	var taps, fs []float64
	for _, s := range res.TaskCompletion {
		switch s.Label {
		case "TAPS":
			taps = s.Y
		case "FairSharing":
			fs = s.Y
		}
	}
	if taps == nil || fs == nil {
		t.Fatal("missing series")
	}
	// The headline claim, at the coarsest granularity that is stable at
	// bench scale: averaged over the sweep, TAPS completes at least as
	// many tasks as Fair Sharing.
	var ta, fa float64
	for i := range taps {
		ta += taps[i]
		fa += fs[i]
	}
	if ta < fa {
		t.Fatalf("%s: TAPS mean %.3f < FairSharing mean %.3f", res.Figure, ta, fa)
	}
}

func TestFig6BenchScale(t *testing.T) {
	scale := BenchScale()
	scheds := []string{"FairSharing", "PDQ", "TAPS"}
	res, err := Fig6(scale, scheds)
	checkSweep(t, res, err, len(DeadlineSweepPoints), scheds)
	tapsVsFairSharing(t, res)
}

func TestFig7BenchScale(t *testing.T) {
	scale := BenchScale()
	scheds := []string{"FairSharing", "Varys", "TAPS"}
	res, err := Fig7(scale, scheds)
	checkSweep(t, res, err, len(DeadlineSweepPoints), scheds)
	tapsVsFairSharing(t, res)
}

// TestFig8IsFig6Run checks Fig. 8's claim on the Fig. 6 sweep, which is
// the run the paper plots it from.
func TestFig8IsFig6Run(t *testing.T) {
	scale := BenchScale()
	scheds := []string{"FairSharing", "TAPS"}
	res, err := Fig6(scale, scheds)
	checkSweep(t, res, err, len(DeadlineSweepPoints), scheds)
	// TAPS's reject rule must waste (almost) nothing; Fair Sharing must
	// waste more.
	var tapsW, fsW float64
	for _, s := range res.WastedBandwidth {
		for _, y := range s.Y {
			if s.Label == "TAPS" {
				tapsW += y
			} else {
				fsW += y
			}
		}
	}
	if tapsW > fsW {
		t.Fatalf("TAPS wasted %.4f > FairSharing %.4f", tapsW, fsW)
	}
}

func TestFig9BenchScale(t *testing.T) {
	scale := BenchScale()
	scheds := []string{"D3", "TAPS"}
	res, err := Fig9(scale, scheds)
	checkSweep(t, res, err, len(SizeSweepPointsKB), scheds)
	// Completion must not improve as flows get bigger (weak monotonic
	// check; bench scale has 12 tasks, so one task is 0.083 of ratio —
	// allow two tasks of noise).
	for _, s := range res.TaskCompletion {
		first, last := s.Y[0], s.Y[len(s.Y)-1]
		if last > first+0.17 {
			t.Fatalf("%s: completion grew with flow size: %g -> %g", s.Label, first, last)
		}
	}
}

func TestFig10TaskEqualsFlow(t *testing.T) {
	scale := BenchScale()
	scheds := []string{"PDQ", "TAPS"}
	res, err := Fig10(scale, scheds)
	checkSweep(t, res, err, len(SizeSweepPointsKB), scheds)
	// Single-flow tasks: task completion ratio == flow completion ratio.
	for i, s := range res.TaskCompletion {
		f := res.FlowCompletion[i]
		for j := range s.Y {
			if s.Y[j] != f.Y[j] {
				t.Fatalf("%s: task ratio %g != flow ratio %g", s.Label, s.Y[j], f.Y[j])
			}
		}
	}
}

func TestFig11BenchScale(t *testing.T) {
	scale := BenchScale()
	scheds := []string{"Baraat", "TAPS"}
	res, err := Fig11(scale, scheds)
	checkSweep(t, res, err, len(scale.FlowsPerTaskSweep), scheds)
}

func TestFig12BenchScale(t *testing.T) {
	scale := BenchScale()
	scheds := []string{"FairSharing", "TAPS"}
	res, err := Fig12(scale, scheds)
	checkSweep(t, res, err, len(scale.TaskCountSweep), scheds)
	tapsVsFairSharing(t, res)
}

func TestFig6LaptopHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("laptop-scale sweep is a few seconds")
	}
	res, err := Fig6(LaptopScale(), AllSchedulers())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline (§V-B): TAPS outperforms every baseline in
	// task completion ratio and application throughput at every deadline.
	assertTAPSOnTop(t, res.TaskCompletion)
	assertTAPSOnTop(t, res.AppThroughput)
}

func TestFig7LaptopHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("laptop-scale sweep is a few seconds")
	}
	res, err := Fig7(LaptopScale(), AllSchedulers())
	if err != nil {
		t.Fatal(err)
	}
	assertTAPSOnTop(t, res.TaskCompletion)
}

func assertTAPSOnTop(t *testing.T, group []metrics.Series) {
	t.Helper()
	var taps []float64
	for _, s := range group {
		if s.Label == "TAPS" {
			taps = s.Y
		}
	}
	if taps == nil {
		t.Fatal("no TAPS series")
	}
	for _, s := range group {
		if s.Label == "TAPS" {
			continue
		}
		for i := range s.Y {
			if s.Y[i] > taps[i]+1e-9 {
				t.Errorf("%s beats TAPS at x=%g: %.4f > %.4f (%s)",
					s.Label, s.X[i], s.Y[i], taps[i], s.YLabel)
			}
		}
	}
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"paper", "laptop", "bench", ""} {
		if _, err := ScaleByName(name); err != nil {
			t.Errorf("ScaleByName(%q): %v", name, err)
		}
	}
	if _, err := ScaleByName("huge"); err == nil {
		t.Error("unknown scale must error")
	}
}

func TestPaperScaleMatchesSectionVA(t *testing.T) {
	p := PaperScale()
	if p.Tree.Pods != 30 || p.Tree.RacksPerPod != 30 || p.Tree.HostsPerRack != 40 {
		t.Fatalf("tree spec %+v", p.Tree)
	}
	if p.FatTreeK != 32 {
		t.Fatalf("fat-tree k = %d", p.FatTreeK)
	}
	if p.Tasks != 30 || p.FlowsPerTask != 1200 || p.FatFlowsPerTask != 1024 {
		t.Fatalf("workload %+v", p)
	}
	if p.SingleFlowTasks != 36000 {
		t.Fatalf("fig10 tasks = %d", p.SingleFlowTasks)
	}
}

func TestSeedAveraging(t *testing.T) {
	scale := BenchScale()
	scale.Seeds = 3
	scheds := []string{"TAPS"}
	res, err := Fig6(scale, scheds)
	checkSweep(t, res, err, len(DeadlineSweepPoints), scheds)
	// Averaged ratios over 12-task runs are generally not multiples of
	// 1/12; verify at least one point needed the averaging (i.e. seeds
	// disagreed) to prove multiple seeds actually ran.
	single, err := Fig6(BenchScale(), scheds)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range res.TaskCompletion[0].Y {
		if res.TaskCompletion[0].Y[i] != single.TaskCompletion[0].Y[i] {
			same = false
		}
	}
	if same {
		t.Fatal("averaging over 3 seeds matched the single-seed run exactly; suspicious")
	}
}

func TestFig9LaptopHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("laptop-scale sweep is a few seconds")
	}
	res, err := Fig9(LaptopScale(), AllSchedulers())
	if err != nil {
		t.Fatal(err)
	}
	assertTAPSOnTop(t, res.TaskCompletion)
	assertTAPSOnTop(t, res.AppThroughput)
}

func TestFig11And12LaptopHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("laptop-scale sweeps are tens of seconds")
	}
	res, err := Fig11(LaptopScale(), AllSchedulers())
	if err != nil {
		t.Fatal(err)
	}
	assertTAPSOnTop(t, res.TaskCompletion)
	res, err = Fig12(LaptopScale(), AllSchedulers())
	if err != nil {
		t.Fatal(err)
	}
	assertTAPSOnTop(t, res.TaskCompletion)
}

func TestExtBCubeLaptopHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("laptop-scale sweep")
	}
	res, err := ExtBCube(LaptopScale(), AllSchedulers())
	if err != nil {
		t.Fatal(err)
	}
	assertTAPSOnTop(t, res.TaskCompletion)
}

// TestPaperScaleTopologySmoke proves the full §V-A topologies and the TAPS
// planner work together at paper scale (a light workload — the full 36,000
// flows/run is the documented hours-long `-scale paper` path).
func TestPaperScaleTopologySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the 36,000-host tree")
	}
	scale := PaperScale()
	g, r := topology.SingleRootedTree(scale.Tree)
	if len(g.Hosts()) != 36000 {
		t.Fatalf("hosts = %d", len(g.Hosts()))
	}
	specs := workload.Generate(g, workload.Spec{
		Tasks:            5,
		MeanFlowsPerTask: 50,
		ArrivalRate:      scale.ArrivalRate,
		Seed:             1,
	})
	eng := sim.New(g, topology.NewCachedRouting(r), mustScheduler(t, "TAPS"), specs,
		sim.Config{MaxTime: simtime.Time(4e12)})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	sum := metrics.Summarize(res)
	if sum.Tasks != 5 {
		t.Fatalf("tasks = %d", sum.Tasks)
	}
	if sum.TasksCompleted == 0 {
		t.Fatal("a light load on the paper tree should complete tasks")
	}
}
