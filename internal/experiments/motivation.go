// Package experiments contains one driver per figure of the paper's
// evaluation (§III motivation examples, §V simulations, §VI testbed). Each
// driver builds the topology and workload, runs the schedulers, and returns
// the rows/series the corresponding figure plots.
package experiments

import (
	"fmt"
	"strings"

	"taps/internal/core"
	"taps/internal/metrics"
	"taps/internal/sched/baraat"
	"taps/internal/sched/d3"
	"taps/internal/sched/fairshare"
	"taps/internal/sched/pdq"
	"taps/internal/sched/varys"
	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// unit is the "time unit" of the motivation examples: 1 ms. One size unit
// is the number of bytes a 1e6 B/s link moves per unit.
const (
	unit      = simtime.Millisecond
	unitBytes = 1000
	unitCap   = 1e6 // bytes/second -> 1000 bytes per unit
)

// MotivationResult is the outcome of one scheduler on one §III example.
type MotivationResult struct {
	Scheduler      string
	FlowsOnTime    int
	TasksCompleted int
	Summary        metrics.Summary
}

// NewScheduler builds a fresh scheduler instance by name, one of
// AllSchedulers. An unknown name is an error that lists the known ones.
func NewScheduler(name string) (sim.Scheduler, error) {
	switch name {
	case "FairSharing":
		return fairshare.New(), nil
	case "D3":
		return d3.New(), nil
	case "PDQ":
		return pdq.New(), nil
	case "Baraat":
		return baraat.New(), nil
	case "Varys":
		return varys.New(), nil
	case "TAPS":
		return core.New(core.DefaultConfig()), nil
	}
	return nil, fmt.Errorf("unknown scheduler %q (known: %s)", name, strings.Join(AllSchedulers(), ", "))
}

// AllSchedulers lists the evaluated schedulers in the paper's legend order.
func AllSchedulers() []string {
	return []string{"FairSharing", "D3", "PDQ", "Baraat", "Varys", "TAPS"}
}

// bottleneck builds the single-bottleneck-link topology of Figs. 1-2: two
// hosts attached to one switch; every flow crosses a->b.
func bottleneck() (*topology.Graph, topology.Routing, topology.NodeID, topology.NodeID) {
	g := topology.NewGraph()
	s := g.AddNode(topology.ToR, "s", 1, 0)
	a := g.AddNode(topology.Host, "a", 0, 0)
	b := g.AddNode(topology.Host, "b", 0, 0)
	g.AddDuplex(a, s, unitCap)
	g.AddDuplex(b, s, unitCap)
	return g, topology.NewBFSRouting(g), a, b
}

// fig1Tasks is the Fig. 1(a) instance: t1 = {f11: 2@4, f12: 4@4},
// t2 = {f21: 1@4, f22: 3@4}; all concurrent.
func fig1Tasks(a, b topology.NodeID) []sim.TaskSpec {
	return []sim.TaskSpec{
		{Arrival: 0, Deadline: 4 * unit, Flows: []sim.FlowSpec{
			{Src: a, Dst: b, Size: 2 * unitBytes},
			{Src: a, Dst: b, Size: 4 * unitBytes},
		}},
		{Arrival: 0, Deadline: 4 * unit, Flows: []sim.FlowSpec{
			{Src: a, Dst: b, Size: 1 * unitBytes},
			{Src: a, Dst: b, Size: 3 * unitBytes},
		}},
	}
}

// fig2Tasks is the Fig. 2(a) instance: t1 = {1@4, 1@4}, t2 = {1@2, 1@2}.
func fig2Tasks(a, b topology.NodeID) []sim.TaskSpec {
	return []sim.TaskSpec{
		{Arrival: 0, Deadline: 4 * unit, Flows: []sim.FlowSpec{
			{Src: a, Dst: b, Size: 1 * unitBytes},
			{Src: a, Dst: b, Size: 1 * unitBytes},
		}},
		{Arrival: 0, Deadline: 2 * unit, Flows: []sim.FlowSpec{
			{Src: a, Dst: b, Size: 1 * unitBytes},
			{Src: a, Dst: b, Size: 1 * unitBytes},
		}},
	}
}

// runMotivation executes one scheduler on one instance.
func runMotivation(g *topology.Graph, r topology.Routing, name string, specs []sim.TaskSpec) (MotivationResult, error) {
	s, err := NewScheduler(name)
	if err != nil {
		return MotivationResult{}, err
	}
	eng := sim.New(g, r, s, specs, simConfig(sim.Config{Validate: true, MaxTime: simtime.Time(1e10)}))
	res, err := eng.Run()
	if err != nil {
		return MotivationResult{}, fmt.Errorf("%s: %w", name, err)
	}
	sum := metrics.Summarize(res)
	return MotivationResult{
		Scheduler:      name,
		FlowsOnTime:    sum.FlowsOnTime,
		TasksCompleted: sum.TasksCompleted,
		Summary:        sum,
	}, nil
}

// Fig1 runs the task-level vs flow-level motivation example on the
// schedulers the figure shows (plus the rest for completeness).
func Fig1(schedulers []string) ([]MotivationResult, error) {
	g, r, a, b := bottleneck()
	out := make([]MotivationResult, 0, len(schedulers))
	for _, name := range schedulers {
		res, err := runMotivation(g, r, name, fig1Tasks(a, b))
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// Fig2 runs the preemption motivation example.
func Fig2(schedulers []string) ([]MotivationResult, error) {
	g, r, a, b := bottleneck()
	out := make([]MotivationResult, 0, len(schedulers))
	for _, name := range schedulers {
		res, err := runMotivation(g, r, name, fig2Tasks(a, b))
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// Fig3Topology builds the star topology of the global-scheduling example
// (Fig. 3c): four hosts around a hub of five switches, every host behind
// its own edge switch, all edge switches joined by the central switch S5.
// It returns the graph, routing, and the four hosts h1..h4.
func Fig3Topology() (*topology.Graph, topology.Routing, [4]topology.NodeID) {
	g := topology.NewGraph()
	s5 := g.AddNode(topology.Core, "S5", 2, -1)
	var hosts [4]topology.NodeID
	for i := 0; i < 4; i++ {
		sw := g.AddNode(topology.ToR, fmt.Sprintf("S%d", i+1), 1, i)
		g.AddDuplex(sw, s5, unitCap)
		hosts[i] = g.AddNode(topology.Host, fmt.Sprintf("h%d", i+1), 0, i)
		g.AddDuplex(hosts[i], sw, unitCap)
	}
	return g, topology.NewBFSRouting(g), hosts
}

// fig3Tasks is the Fig. 3(a) instance; every flow is its own task (the
// example is about flows). f1: 1@1 h1->h2; f2: 1@2 h1->h4; f3: 1@2 h3->h2;
// f4: 2@3 h3->h4.
func fig3Tasks(h [4]topology.NodeID) []sim.TaskSpec {
	one := func(src, dst topology.NodeID, size, dl int64) sim.TaskSpec {
		return sim.TaskSpec{Arrival: 0, Deadline: dl * unit,
			Flows: []sim.FlowSpec{{Src: src, Dst: dst, Size: size * unitBytes}}}
	}
	return []sim.TaskSpec{
		one(h[0], h[1], 1, 1),
		one(h[0], h[3], 1, 2),
		one(h[2], h[1], 1, 2),
		one(h[2], h[3], 2, 3),
	}
}

// Fig3 compares PDQ (with a full switch flow list, as the example assumes)
// against TAPS's global scheduling on the star instance. It returns the
// per-scheduler number of flows completed before deadline (the paper: PDQ
// completes 3, global scheduling completes all 4).
func Fig3() (map[string]MotivationResult, error) {
	out := make(map[string]MotivationResult, 2)

	g, r, hosts := Fig3Topology()
	specs := fig3Tasks(hosts)

	// PDQ with a single-entry switch flow list (the example's "flow list
	// in S3 is full" assumption).
	p := pdq.New()
	p.MaxList = 1
	eng := sim.New(g, r, p, specs, simConfig(sim.Config{Validate: true, MaxTime: simtime.Time(1e10)}))
	res, err := eng.Run()
	if err != nil {
		return nil, fmt.Errorf("pdq: %w", err)
	}
	sum := metrics.Summarize(res)
	out["PDQ"] = MotivationResult{Scheduler: "PDQ", FlowsOnTime: sum.FlowsOnTime, TasksCompleted: sum.TasksCompleted, Summary: sum}

	taps := core.New(core.DefaultConfig())
	eng = sim.New(g, r, taps, specs, simConfig(sim.Config{Validate: true, MaxTime: simtime.Time(1e10)}))
	res, err = eng.Run()
	if err != nil {
		return nil, fmt.Errorf("taps: %w", err)
	}
	sum = metrics.Summarize(res)
	out["TAPS"] = MotivationResult{Scheduler: "TAPS", FlowsOnTime: sum.FlowsOnTime, TasksCompleted: sum.TasksCompleted, Summary: sum}
	return out, nil
}
