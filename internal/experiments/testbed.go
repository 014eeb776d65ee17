package experiments

import (
	"fmt"

	"taps/internal/metrics"
	"taps/internal/sdn"
	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
	"taps/internal/workload"
)

// TestbedSpec sizes the §VI experiment. The paper's run: 8-host partial
// fat-tree, 100 flows, 100 KB average size, 40 ms average deadline, random
// endpoints. Flow-to-task grouping is not specified in the paper; the
// default groups the 100 flows into 20 tasks of 5 (documented in
// EXPERIMENTS.md).
type TestbedSpec struct {
	Tasks        int
	FlowsPerTask int
	MeanSize     int64
	MeanDeadline simtime.Time
	ArrivalRate  float64
	Seed         int64
}

// PaperTestbedSpec is the literal §VI configuration (100 flows, 100 KB
// average size, 40 ms average deadline); `tapsim -scale paper -fig 14`
// runs it. On our lossless emulated fabric this load is too light to
// separate the transports — both complete nearly everything (the physical
// testbed had real-stack overheads) — so Fig. 14 at every other scale runs
// StressTestbedSpec; see EXPERIMENTS.md.
func PaperTestbedSpec() TestbedSpec {
	return TestbedSpec{
		Tasks:        20,
		FlowsPerTask: 5,
		MeanSize:     100 * 1024,
		MeanDeadline: 40 * simtime.Millisecond,
		ArrivalRate:  1000,
		Seed:         1,
	}
}

// StressTestbedSpec loads the testbed into the regime Fig. 14 depicts:
// Fair Sharing loses a large share of its bytes to deadline misses while
// TAPS's admitted tasks complete cleanly. tapsim runs it for Fig. 14 at
// the laptop and bench scales.
func StressTestbedSpec() TestbedSpec {
	return TestbedSpec{
		Tasks:        20,
		FlowsPerTask: 5,
		MeanSize:     300 * 1024,
		MeanDeadline: 20 * simtime.Millisecond,
		ArrivalRate:  2000,
		Seed:         1,
	}
}

// Fig14Result carries both testbed runs and their Fig. 14 series.
type Fig14Result struct {
	TAPS        *sdn.Result
	FairSharing *sdn.Result
	Series      []metrics.Series // effective application throughput, % vs ms
}

// Fig14 runs the SDN testbed emulation under TAPS and Fair Sharing and
// returns the effective-application-throughput timelines of Fig. 14.
func Fig14(spec TestbedSpec) (*Fig14Result, error) {
	g, r := topology.PartialFatTree(topology.PaperTestbed())
	tasks := workload.Generate(g, workload.Spec{
		Tasks:             spec.Tasks,
		MeanFlowsPerTask:  spec.FlowsPerTask,
		FixedFlowsPerTask: true,
		ArrivalRate:       spec.ArrivalRate,
		MeanDeadline:      spec.MeanDeadline,
		MeanFlowSize:      spec.MeanSize,
		Seed:              spec.Seed,
	})
	out := &Fig14Result{}
	for _, mode := range []sdn.Mode{sdn.ModeTAPS, sdn.ModeFairSharing} {
		specs := append([]sim.TaskSpec(nil), tasks...)
		res, err := sdn.New(g, r, mode, sdn.Config{}, specs).Run()
		if err != nil {
			return nil, fmt.Errorf("fig14 %s: %w", mode, err)
		}
		ms, pct := res.EffectiveThroughput()
		out.Series = append(out.Series, metrics.Series{
			Label: mode.String(), X: ms, Y: pct,
			XLabel: "time_ms", YLabel: "effective application throughput %",
		})
		if mode == sdn.ModeTAPS {
			out.TAPS = res
		} else {
			out.FairSharing = res
		}
	}
	return out, nil
}
