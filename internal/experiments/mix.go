package experiments

import (
	"fmt"

	"taps/internal/metrics"
	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
	"taps/internal/workload"
)

// MixResult is the production-mix extension experiment: per-application
// class (web search / MapReduce / Cosmos, §II) task completion under each
// scheduler on one shared cluster workload.
type MixResult struct {
	// PerClass[scheduler][preset] = completed/total.
	PerClass map[string]map[workload.Preset][2]int
	Order    []workload.Preset
}

// ExtMix runs the §II application mixture (an extension beyond the
// paper's single-distribution workloads): interactive web-search tasks
// share the fabric with heavy MapReduce shuffles, and the per-class
// completion shows who protects the interactive class.
func ExtMix(scale Scale, schedulers []string) (*MixResult, error) {
	g, r := topology.SingleRootedTree(scale.Tree)
	scaleFlows := 0.1
	if scale.Name == "paper" {
		scaleFlows = 1
	}
	if scale.Name == "bench" {
		scaleFlows = 0.05
	}
	tasks, kinds := workload.GenerateMix(g, workload.MixSpec{
		Tasks:       scale.Tasks,
		ArrivalRate: scale.ArrivalRate,
		ScaleFlows:  scaleFlows,
		Seed:        scale.Seed,
	})
	perClass, err := runCells(len(schedulers), r, func(cr topology.Routing, i int) (map[workload.Preset][2]int, error) {
		name := schedulers[i]
		s, err := NewScheduler(name)
		if err != nil {
			return nil, err
		}
		eng := sim.New(g, cr, s, tasks, simConfig(sim.Config{MaxTime: simtime.Time(4e12)}))
		res, err := eng.Run()
		if err != nil {
			return nil, fmt.Errorf("mix %s: %w", name, err)
		}
		byClass := make(map[workload.Preset][2]int)
		for i, task := range res.Tasks {
			c := byClass[kinds[i]]
			c[1]++
			if task.Completed(res.Flows) {
				c[0]++
			}
			byClass[kinds[i]] = c
		}
		return byClass, nil
	})
	if err != nil {
		return nil, err
	}
	out := &MixResult{
		PerClass: make(map[string]map[workload.Preset][2]int, len(schedulers)),
		Order:    []workload.Preset{workload.PresetWebSearch, workload.PresetMapReduce, workload.PresetCosmos},
	}
	for i, name := range schedulers {
		out.PerClass[name] = perClass[i]
	}
	return out, nil
}

// Table renders the mix result: one row per application class, one column
// per scheduler, cells = completion ratio.
func (m *MixResult) Table(schedulers []string) string {
	series := make([]metrics.Series, 0, len(schedulers))
	for _, s := range schedulers {
		var xs, ys []float64
		for i, p := range m.Order {
			c := m.PerClass[s][p]
			if c[1] == 0 {
				continue
			}
			xs = append(xs, float64(i))
			ys = append(ys, float64(c[0])/float64(c[1]))
		}
		series = append(series, metrics.Series{Label: s, X: xs, Y: ys})
	}
	header := metrics.Table("Extension: application-mix task completion (rows: 0=websearch 1=mapreduce 2=cosmos)",
		"class", series)
	return header
}
