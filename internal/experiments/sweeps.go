package experiments

import (
	"fmt"

	"taps/internal/metrics"
	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
	"taps/internal/workload"
)

// Scale sizes the §V experiments. PaperScale is what §V-A specifies;
// LaptopScale keeps the same generators and a comparable contention level
// (the agg-core links are ~2x oversubscribed at the default deadline) on a
// topology small enough for seconds-long runs. BenchScale is smaller still,
// for the per-figure testing.B benchmarks.
type Scale struct {
	Name string

	Tree     topology.SingleRootedTreeSpec
	FatTreeK int

	Tasks           int
	FlowsPerTask    int // mean flows per task, single-rooted runs
	FatFlowsPerTask int // mean flows per task, fat-tree runs
	ArrivalRate     float64

	// Fig. 10 (single-flow tasks: task ≡ flow).
	SingleFlowTasks       int
	SingleFlowArrivalRate float64

	// Fig. 11/12 sweep points.
	FlowsPerTaskSweep []int
	TaskCountSweep    []int

	Seed int64
	// Seeds averages every sweep point over this many consecutive seeds
	// starting at Seed (0 or 1 = single run). The paper does not state a
	// repetition count; averaging is off by default so published tables
	// stay reproducible from one draw.
	Seeds int
}

// seedList expands Seed/Seeds into the seeds each point runs with.
func (s Scale) seedList() []int64 {
	n := s.Seeds
	if n < 1 {
		n = 1
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = s.Seed + int64(i)
	}
	return out
}

// PaperScale reproduces §V-A exactly: 36,000-host tree, 32-pod fat-tree,
// 30 tasks with 1200 (single-rooted) / 1024 (fat-tree) flows each.
// Full-scale TAPS re-planning is O(flows²) — expect minutes per point.
func PaperScale() Scale {
	return Scale{
		Name:                  "paper",
		Tree:                  topology.PaperSingleRootedTree(),
		FatTreeK:              32,
		Tasks:                 30,
		FlowsPerTask:          1200,
		FatFlowsPerTask:       1024,
		ArrivalRate:           100,
		SingleFlowTasks:       36000,
		SingleFlowArrivalRate: 36000,
		FlowsPerTaskSweep:     []int{400, 600, 800, 1000, 1200, 1400, 1600, 1800, 2000},
		TaskCountSweep:        []int{30, 60, 90, 120, 150, 180, 210, 240, 270},
		Seed:                  1,
	}
}

// LaptopScale shrinks the topology ~225x while keeping the same
// oversubscription shape (§V-A contention): 4 pods × 4 racks × 10 hosts
// (the agg-core links are ~2x oversubscribed at the default deadline),
// and a k=4 fat-tree loaded to ~1.5 flows per host link so that ECMP
// collisions and endpoint contention separate the schedulers as in Fig. 7.
func LaptopScale() Scale {
	return Scale{
		Name: "laptop",
		Tree: topology.SingleRootedTreeSpec{
			Pods: 4, RacksPerPod: 4, HostsPerRack: 10, LinkCapacity: topology.Gbps(1),
		},
		FatTreeK:              4,
		Tasks:                 30,
		FlowsPerTask:          60,
		FatFlowsPerTask:       24,
		ArrivalRate:           100,
		SingleFlowTasks:       1200,
		SingleFlowArrivalRate: 4000,
		FlowsPerTaskSweep:     []int{20, 40, 60, 80, 100},
		TaskCountSweep:        []int{30, 60, 90, 120, 150},
		Seed:                  1,
	}
}

// BenchScale is the tiny configuration the testing.B benchmarks use.
func BenchScale() Scale {
	s := LaptopScale()
	s.Name = "bench"
	s.Tree = topology.SingleRootedTreeSpec{
		Pods: 3, RacksPerPod: 2, HostsPerRack: 5, LinkCapacity: topology.Gbps(1),
	}
	s.FatTreeK = 4
	s.Tasks = 12
	s.FlowsPerTask = 20
	s.FatFlowsPerTask = 16
	s.SingleFlowTasks = 200
	s.FlowsPerTaskSweep = []int{10, 20, 30}
	s.TaskCountSweep = []int{10, 20, 30}
	return s
}

// ScaleByName resolves "paper", "laptop" or "bench".
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "paper":
		return PaperScale(), nil
	case "laptop", "":
		return LaptopScale(), nil
	case "bench":
		return BenchScale(), nil
	}
	return Scale{}, fmt.Errorf("experiments: unknown scale %q (want paper, laptop or bench)", name)
}

// SweepResult is one figure's data: per-metric series per scheduler.
type SweepResult struct {
	Figure string
	XLabel string
	// One Series per scheduler per metric (means over the seed list).
	TaskCompletion  []metrics.Series
	FlowCompletion  []metrics.Series
	AppThroughput   []metrics.Series
	WastedBandwidth []metrics.Series
	// Sample standard deviations, aligned with the mean series; all-zero
	// when only one seed ran.
	TaskCompletionStd  []metrics.Series
	FlowCompletionStd  []metrics.Series
	AppThroughputStd   []metrics.Series
	WastedBandwidthStd []metrics.Series
}

// runPoint executes one (scheduler, workload, topology) cell.
func runPoint(g *topology.Graph, r topology.Routing, schedName string, specs []sim.TaskSpec) (metrics.Summary, error) {
	s, err := NewScheduler(schedName)
	if err != nil {
		return metrics.Summary{}, err
	}
	eng := sim.New(g, r, s, specs, simConfig(sim.Config{MaxTime: simtime.Time(4e12)}))
	res, err := eng.Run()
	if err != nil {
		return metrics.Summary{}, fmt.Errorf("%s: %w", schedName, err)
	}
	return metrics.Summarize(res), nil
}

// sweep runs every scheduler over the x-axis points; makeSpecs builds the
// workload for point i under one seed (the same workload is reused for
// every scheduler), and each point is averaged over the scale's seed list.
// The points × seeds × schedulers cells run on runCells; r is the
// uncached routing, which the runner wraps per worker.
func sweep(g *topology.Graph, r topology.Routing, schedulers []string,
	figure, xLabel string, xs []float64, seeds []int64,
	makeSpecs func(i int, seed int64) []sim.TaskSpec) (*SweepResult, error) {

	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	// Cell c is scheduler c % len(schedulers) on workload c / len(schedulers),
	// and workload w is seed w % len(seeds) of point w / len(seeds): the
	// nesting order of the fold below.
	specs := make([][]sim.TaskSpec, len(xs)*len(seeds))
	for w := range specs {
		specs[w] = makeSpecs(w/len(seeds), seeds[w%len(seeds)])
	}
	sums, err := runCells(len(specs)*len(schedulers), r, func(cr topology.Routing, c int) (metrics.Summary, error) {
		w := c / len(schedulers)
		sum, err := runPoint(g, cr, schedulers[c%len(schedulers)], specs[w])
		if err != nil {
			return sum, fmt.Errorf("%s at %s=%g seed=%d: %w", figure, xLabel, xs[w/len(seeds)], seeds[w%len(seeds)], err)
		}
		return sum, nil
	})
	if err != nil {
		return nil, err
	}

	out := &SweepResult{Figure: figure, XLabel: xLabel}
	const nMetrics = 4 // tcr, fcr, app, waste
	accs := make(map[string][]metrics.Accumulator, len(schedulers))
	for _, s := range schedulers {
		accs[s] = make([]metrics.Accumulator, len(xs)*nMetrics)
	}
	for c, sum := range sums {
		i := c / len(schedulers) / len(seeds)
		a := accs[schedulers[c%len(schedulers)]]
		a[i*nMetrics+0].Add(sum.TaskCompletionRatio())
		a[i*nMetrics+1].Add(sum.FlowCompletionRatio())
		a[i*nMetrics+2].Add(sum.ApplicationThroughput())
		a[i*nMetrics+3].Add(sum.WastedBandwidthRatio())
	}
	series := func(s string, metric int, yLabel string, std bool) metrics.Series {
		ys := make([]float64, len(xs))
		for i := range xs {
			a := accs[s][i*nMetrics+metric]
			if std {
				ys[i] = a.StdDev()
			} else {
				ys[i] = a.Mean()
			}
		}
		return metrics.Series{Label: s, X: xs, Y: ys, XLabel: xLabel, YLabel: yLabel}
	}
	for _, s := range schedulers {
		out.TaskCompletion = append(out.TaskCompletion, series(s, 0, "task completion ratio", false))
		out.FlowCompletion = append(out.FlowCompletion, series(s, 1, "flow completion ratio", false))
		out.AppThroughput = append(out.AppThroughput, series(s, 2, "application throughput", false))
		out.WastedBandwidth = append(out.WastedBandwidth, series(s, 3, "wasted bandwidth ratio", false))
		out.TaskCompletionStd = append(out.TaskCompletionStd, series(s, 0, "task completion ratio (std)", true))
		out.FlowCompletionStd = append(out.FlowCompletionStd, series(s, 1, "flow completion ratio (std)", true))
		out.AppThroughputStd = append(out.AppThroughputStd, series(s, 2, "application throughput (std)", true))
		out.WastedBandwidthStd = append(out.WastedBandwidthStd, series(s, 3, "wasted bandwidth ratio (std)", true))
	}
	return out, nil
}

// DeadlineSweepPoints is the Fig. 6/7/8 x axis: mean deadline 20..60 ms.
var DeadlineSweepPoints = []float64{20, 30, 40, 50, 60}

// Fig6 varies the mean flow deadline on the single-rooted tree and reports
// application throughput (6a) and task completion ratio (6b). The same run
// also yields Fig. 8's wasted-bandwidth ratio.
func Fig6(scale Scale, schedulers []string) (*SweepResult, error) {
	g, r := topology.SingleRootedTree(scale.Tree)
	return sweep(g, r, schedulers,
		"fig6", "deadline_ms", DeadlineSweepPoints, scale.seedList(), func(i int, seed int64) []sim.TaskSpec {
			return workload.Generate(g, workload.Spec{
				Tasks:            scale.Tasks,
				MeanFlowsPerTask: scale.FlowsPerTask,
				ArrivalRate:      scale.ArrivalRate,
				MeanDeadline:     simtime.FromMillis(DeadlineSweepPoints[i]),
				Seed:             seed,
			})
		})
}

// Fig7 is the deadline sweep on the multi-rooted fat-tree.
func Fig7(scale Scale, schedulers []string) (*SweepResult, error) {
	g, r := topology.FatTree(topology.FatTreeSpec{K: scale.FatTreeK, LinkCapacity: topology.Gbps(1)})
	return sweep(g, r, schedulers,
		"fig7", "deadline_ms", DeadlineSweepPoints, scale.seedList(), func(i int, seed int64) []sim.TaskSpec {
			return workload.Generate(g, workload.Spec{
				Tasks:            scale.Tasks,
				MeanFlowsPerTask: scale.FatFlowsPerTask,
				ArrivalRate:      scale.ArrivalRate,
				MeanDeadline:     simtime.FromMillis(DeadlineSweepPoints[i]),
				Seed:             seed,
			})
		})
}

// ExtBCube is an extension experiment beyond the paper's figures: the
// Fig. 7 deadline sweep on a BCube(n,1) server-centric topology, showing
// TAPS (and the baselines) running unchanged on a third architecture —
// the §III-B "applicability to general data center topologies" goal.
// Laptop scale uses BCube(6,1) = 36 servers; bench BCube(4,1) = 16.
func ExtBCube(scale Scale, schedulers []string) (*SweepResult, error) {
	n := 6
	if scale.Name == "bench" {
		n = 4
	}
	if scale.Name == "paper" {
		n = 16 // 256 servers, 2 ports each
	}
	g, r := topology.BCube(topology.BCubeSpec{N: n, K: 1, LinkCapacity: topology.Gbps(1)})
	return sweep(g, r, schedulers,
		"bcube", "deadline_ms", DeadlineSweepPoints, scale.seedList(), func(i int, seed int64) []sim.TaskSpec {
			return workload.Generate(g, workload.Spec{
				Tasks:            scale.Tasks,
				MeanFlowsPerTask: scale.FatFlowsPerTask,
				ArrivalRate:      scale.ArrivalRate,
				MeanDeadline:     simtime.FromMillis(DeadlineSweepPoints[i]),
				Seed:             seed,
			})
		})
}

// SizeSweepPointsKB is the Fig. 9/10 x axis: mean flow size 60..300 KB.
var SizeSweepPointsKB = []float64{60, 120, 180, 240, 300}

// Fig9 varies the mean flow size on the single-rooted tree.
func Fig9(scale Scale, schedulers []string) (*SweepResult, error) {
	g, r := topology.SingleRootedTree(scale.Tree)
	return sweep(g, r, schedulers,
		"fig9", "flow_size_kb", SizeSweepPointsKB, scale.seedList(), func(i int, seed int64) []sim.TaskSpec {
			return workload.Generate(g, workload.Spec{
				Tasks:            scale.Tasks,
				MeanFlowsPerTask: scale.FlowsPerTask,
				ArrivalRate:      scale.ArrivalRate,
				MeanFlowSize:     int64(SizeSweepPointsKB[i] * 1024),
				Seed:             seed,
			})
		})
}

// Fig10 is the near-optimality check: every task has exactly one flow, so
// task completion ratio equals flow completion ratio.
func Fig10(scale Scale, schedulers []string) (*SweepResult, error) {
	g, r := topology.SingleRootedTree(scale.Tree)
	return sweep(g, r, schedulers,
		"fig10", "flow_size_kb", SizeSweepPointsKB, scale.seedList(), func(i int, seed int64) []sim.TaskSpec {
			return workload.Generate(g, workload.Spec{
				Tasks:             scale.SingleFlowTasks,
				MeanFlowsPerTask:  1,
				FixedFlowsPerTask: true,
				ArrivalRate:       scale.SingleFlowArrivalRate,
				MeanFlowSize:      int64(SizeSweepPointsKB[i] * 1024),
				Seed:              seed,
			})
		})
}

// Fig11 varies the mean number of flows per task.
func Fig11(scale Scale, schedulers []string) (*SweepResult, error) {
	g, r := topology.SingleRootedTree(scale.Tree)
	xs := make([]float64, len(scale.FlowsPerTaskSweep))
	for i, n := range scale.FlowsPerTaskSweep {
		xs[i] = float64(n)
	}
	return sweep(g, r, schedulers,
		"fig11", "flows_per_task", xs, scale.seedList(), func(i int, seed int64) []sim.TaskSpec {
			return workload.Generate(g, workload.Spec{
				Tasks:            scale.Tasks,
				MeanFlowsPerTask: scale.FlowsPerTaskSweep[i],
				ArrivalRate:      scale.ArrivalRate,
				Seed:             seed,
			})
		})
}

// Fig12 varies the number of tasks.
func Fig12(scale Scale, schedulers []string) (*SweepResult, error) {
	g, r := topology.SingleRootedTree(scale.Tree)
	xs := make([]float64, len(scale.TaskCountSweep))
	for i, n := range scale.TaskCountSweep {
		xs[i] = float64(n)
	}
	return sweep(g, r, schedulers,
		"fig12", "task_count", xs, scale.seedList(), func(i int, seed int64) []sim.TaskSpec {
			return workload.Generate(g, workload.Spec{
				Tasks:            scale.TaskCountSweep[i],
				MeanFlowsPerTask: scale.FlowsPerTask,
				ArrivalRate:      scale.ArrivalRate,
				Seed:             seed,
			})
		})
}
