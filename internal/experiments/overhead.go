package experiments

import (
	"fmt"

	"taps/internal/sdn"
	"taps/internal/simtime"
	"taps/internal/topology"
	"taps/internal/workload"
)

// OverheadPoint is one load level of the control-plane overhead
// experiment.
type OverheadPoint struct {
	Tasks           int
	Flows           int
	ControlMessages int
	TableInstalls   int
	TableRejects    int
	Replans         int // grant broadcasts = admission decisions + re-plans
	MsgsPerFlow     float64
}

// ExtControlOverhead measures the §IV-C concern the paper raises but does
// not quantify: how much control-plane traffic (messages, flow-table
// installs) the centralized design costs as load grows, on the testbed
// emulation. The per-flow message count should stay flat (constant probe /
// grant / TERM per flow) while installs grow with path length and
// re-planning.
func ExtControlOverhead(taskCounts []int, seed int64) ([]OverheadPoint, error) {
	g, r := topology.PartialFatTree(topology.PaperTestbed())
	return runCells(len(taskCounts), r, func(_ topology.Routing, i int) (OverheadPoint, error) {
		n := taskCounts[i]
		tasks := workload.Generate(g, workload.Spec{
			Tasks:             n,
			MeanFlowsPerTask:  4,
			FixedFlowsPerTask: true,
			ArrivalRate:       500,
			MeanDeadline:      200 * simtime.Millisecond,
			MeanFlowSize:      100 * 1024,
			Seed:              seed,
		})
		res, err := sdn.New(g, r, sdn.ModeTAPS, sdn.Config{}, tasks).Run()
		if err != nil {
			return OverheadPoint{}, fmt.Errorf("overhead at %d tasks: %w", n, err)
		}
		p := OverheadPoint{
			Tasks:           n,
			Flows:           res.Flows,
			ControlMessages: res.ControlMessages,
			TableInstalls:   res.TableInstalls,
			TableRejects:    res.TableRejects,
		}
		if res.Flows > 0 {
			p.MsgsPerFlow = float64(res.ControlMessages) / float64(res.Flows)
		}
		return p, nil
	})
}

// OverheadTable renders the overhead points as text.
func OverheadTable(points []OverheadPoint) string {
	s := "## Extension: TAPS control-plane overhead (testbed emulation)\n"
	s += fmt.Sprintf("%-8s %-8s %-10s %-10s %-10s %-12s\n",
		"tasks", "flows", "messages", "installs", "rejects", "msgs/flow")
	for _, p := range points {
		s += fmt.Sprintf("%-8d %-8d %-10d %-10d %-10d %-12.2f\n",
			p.Tasks, p.Flows, p.ControlMessages, p.TableInstalls, p.TableRejects, p.MsgsPerFlow)
	}
	return s
}
