package main

import (
	"bytes"
	"io"

	"taps/internal/core"
	"taps/internal/experiments"
	"taps/internal/obs/declog"
	"taps/internal/obs/span"
	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
	"taps/internal/workload"
)

// spanRun executes one TAPS simulation at the scale's §V-A point with the
// decision log on (and transmission segments, so the trace carries real
// transmissions, not just grants), and returns the span tree the log
// replays into. The log goes to declogPath when that is non-empty — the
// flight recording `tapsctl -replay` consumes — and stays in memory
// otherwise. The run is fully deterministic for a given scale+seed — the
// golden-trace and golden-declog tests depend on that.
func spanRun(scale experiments.Scale, declogPath string) (*span.Tree, error) {
	g, r := topology.SingleRootedTree(scale.Tree)
	specs := workload.Generate(g, workload.Spec{
		Tasks:            scale.Tasks,
		MeanFlowsPerTask: scale.FlowsPerTask,
		ArrivalRate:      scale.ArrivalRate,
		Seed:             scale.Seed,
	})
	dl := &declog.Writer{}
	if declogPath != "" {
		var err error
		dl, err = declog.Create(declogPath, declog.Options{})
		if err != nil {
			return nil, err
		}
	}
	dl.Append(&declog.Record{Kind: declog.KindMeta, Meta: &declog.Meta{Source: "tapsim", LinkNames: g.LinkNames()}})
	eng := sim.New(g, topology.NewCachedRouting(r), core.New(core.DefaultConfig()), specs, sim.Config{
		RecordSegments: true, Sink: declog.Sink{Log: dl}, MaxTime: simtime.Time(4e12),
	})
	if _, err := eng.Run(); err != nil {
		dl.Close()
		return nil, err
	}
	if err := dl.Close(); err != nil {
		return nil, err
	}
	log, err := dl.Bytes()
	if err != nil {
		return nil, err
	}
	recs, _, err := declog.Read(bytes.NewReader(log))
	if err != nil {
		return nil, err
	}
	rp := declog.NewReplayer()
	rp.ApplyAll(recs)
	return rp.Tree(), nil
}

// printWhy renders the causal explanation of one task's fate: a task ID,
// or "rejected" for the run's first discarded task (span.WhyTask).
func printWhy(out io.Writer, tree *span.Tree, arg string) error {
	task, err := span.WhyTask(tree, arg)
	if err != nil {
		return err
	}
	_, err = io.WriteString(out, span.WhyText(tree, task))
	return err
}
