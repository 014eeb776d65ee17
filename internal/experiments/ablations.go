package experiments

import (
	"fmt"
	"math/rand"

	"taps/internal/core"
	"taps/internal/metrics"
	"taps/internal/opt"
	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
	"taps/internal/workload"
)

// AblationResult is one TAPS variant's outcome on the ablation workload.
type AblationResult struct {
	Variant string
	Summary metrics.Summary
}

// ablationWorkload is the Fig. 6 default point (40 ms mean deadline) at
// the given scale.
func ablationWorkload(scale Scale, g *topology.Graph) []sim.TaskSpec {
	return workload.Generate(g, workload.Spec{
		Tasks:            scale.Tasks,
		MeanFlowsPerTask: scale.FlowsPerTask,
		ArrivalRate:      scale.ArrivalRate,
		Seed:             scale.Seed,
	})
}

// variant is one TAPS configuration of an ablation.
type variant struct {
	name string
	cfg  core.Config
}

// runVariants runs every variant on the same workload, one cell each.
func runVariants(g *topology.Graph, r topology.Routing, specs []sim.TaskSpec, variants []variant) ([]AblationResult, error) {
	return runCells(len(variants), r, func(cr topology.Routing, i int) (AblationResult, error) {
		v := variants[i]
		eng := sim.New(g, cr, core.New(v.cfg), specs, simConfig(sim.Config{MaxTime: simtime.Time(4e12)}))
		res, err := eng.Run()
		if err != nil {
			return AblationResult{}, fmt.Errorf("%s: %w", v.name, err)
		}
		return AblationResult{Variant: v.name, Summary: metrics.Summarize(res)}, nil
	})
}

// AblationRejectRule isolates the §IV-B admission control: full TAPS vs
// accept-everything.
func AblationRejectRule(scale Scale) ([]AblationResult, error) {
	g, r := topology.SingleRootedTree(scale.Tree)
	noReject := core.DefaultConfig()
	noReject.DisableRejectRule = true
	return runVariants(g, r, ablationWorkload(scale, g), []variant{
		{"taps", core.DefaultConfig()},
		{"no-reject-rule", noReject},
	})
}

// AblationPreemption isolates task preemption: full TAPS vs a variant that
// never discards an admitted task.
func AblationPreemption(scale Scale) ([]AblationResult, error) {
	g, r := topology.SingleRootedTree(scale.Tree)
	noPreempt := core.DefaultConfig()
	noPreempt.NoPreemption = true
	return runVariants(g, r, ablationWorkload(scale, g), []variant{
		{"taps", core.DefaultConfig()},
		{"no-preemption", noPreempt},
	})
}

// AblationPathCap sweeps the candidate-path cap on the fat-tree (§IV's
// multi-path routing contribution and its planning cost).
func AblationPathCap(scale Scale, caps []int) ([]AblationResult, error) {
	g, r := topology.FatTree(topology.FatTreeSpec{K: scale.FatTreeK, LinkCapacity: topology.Gbps(1)})
	specs := workload.Generate(g, workload.Spec{
		Tasks:            scale.Tasks,
		MeanFlowsPerTask: scale.FatFlowsPerTask,
		ArrivalRate:      scale.ArrivalRate,
		Seed:             scale.Seed,
	})
	variants := make([]variant, len(caps))
	for i, cap := range caps {
		variants[i] = variant{fmt.Sprintf("paths=%d", cap), core.DefaultConfig()}
		variants[i].cfg.MaxPaths = cap
	}
	return runVariants(g, r, specs, variants)
}

// AblationOrdering compares the EDF+SJF priority discipline against
// EDF-only and SJF-only.
func AblationOrdering(scale Scale) ([]AblationResult, error) {
	g, r := topology.SingleRootedTree(scale.Tree)
	orderings := []core.Ordering{core.OrderEDFSJF, core.OrderEDF, core.OrderSJF}
	variants := make([]variant, len(orderings))
	for i, ord := range orderings {
		variants[i] = variant{ord.String(), core.DefaultConfig()}
		variants[i].cfg.Ordering = ord
	}
	return runVariants(g, r, ablationWorkload(scale, g), variants)
}

// OptimalComparison is the outcome of AblationVsOptimal.
type OptimalComparison struct {
	Trials    int
	TAPSTotal int // tasks TAPS completed across all trials
	OptTotal  int // exact optima summed across all trials
}

// Ratio returns TAPS's fraction of optimal task completions.
func (o OptimalComparison) Ratio() float64 {
	if o.OptTotal == 0 {
		return 1
	}
	return float64(o.TAPSTotal) / float64(o.OptTotal)
}

// AblationVsOptimal measures TAPS against the exact optimum (internal/opt)
// on random single-bottleneck instances: the near-optimality claim of §I.
func AblationVsOptimal(trials int, seed int64) (OptimalComparison, error) {
	rng := rand.New(rand.NewSource(seed))
	g := topology.NewGraph()
	sw := g.AddNode(topology.ToR, "s", 1, 0)
	a := g.AddNode(topology.Host, "a", 0, 0)
	b := g.AddNode(topology.Host, "b", 0, 0)
	g.AddDuplex(a, sw, 1e6)
	g.AddDuplex(b, sw, 1e6)
	r := topology.NewBFSRouting(g)

	cmp := OptimalComparison{Trials: trials}
	for trial := 0; trial < trials; trial++ {
		n := 2 + rng.Intn(5)
		tasks := make([]opt.Task, n)
		var specs []sim.TaskSpec
		for i := range tasks {
			d := simtime.Time(3 + rng.Intn(12))
			m := 1 + rng.Intn(3)
			spec := sim.TaskSpec{Arrival: 0, Deadline: d * simtime.Millisecond}
			for j := 0; j < m; j++ {
				w := simtime.Time(1 + rng.Intn(4))
				tasks[i] = append(tasks[i], opt.Job{Deadline: d, Work: w})
				spec.Flows = append(spec.Flows, sim.FlowSpec{Src: a, Dst: b, Size: w * 1000})
			}
			specs = append(specs, spec)
		}
		best, _ := opt.MaxTasks(tasks)
		cmp.OptTotal += best

		eng := sim.New(g, r, core.New(core.DefaultConfig()), specs, simConfig(sim.Config{MaxTime: simtime.Time(1e12)}))
		res, err := eng.Run()
		if err != nil {
			return cmp, fmt.Errorf("trial %d: %w", trial, err)
		}
		for _, task := range res.Tasks {
			if task.Completed(res.Flows) {
				cmp.TAPSTotal++
			}
		}
	}
	return cmp, nil
}
