package main

import (
	"fmt"
	"io"
	"strconv"

	"taps/internal/core"
	"taps/internal/experiments"
	"taps/internal/obs/declog"
	"taps/internal/obs/span"
	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
	"taps/internal/workload"
)

// spanRun executes one TAPS simulation at the scale's §V-A point with
// causal span recording (and transmission segments, so the trace carries
// real transmissions, not just grants). When declogPath is non-empty the
// run additionally writes the binary decision log there (the flight
// recording `tapsctl -replay` consumes). The run is fully deterministic
// for a given scale+seed — the golden-trace and golden-declog tests
// depend on that.
func spanRun(scale experiments.Scale, declogPath string) (*span.Tree, *topology.Graph, error) {
	g, r := topology.SingleRootedTree(scale.Tree)
	specs := workload.Generate(g, workload.Spec{
		Tasks:            scale.Tasks,
		MeanFlowsPerTask: scale.FlowsPerTask,
		ArrivalRate:      scale.ArrivalRate,
		Seed:             scale.Seed,
	})
	var dl *declog.Writer
	if declogPath != "" {
		var err error
		dl, err = declog.Create(declogPath, declog.Options{})
		if err != nil {
			return nil, nil, err
		}
		names := make([]string, g.NumLinks())
		for i := range names {
			names[i] = g.Link(topology.LinkID(i)).Name
		}
		dl.Append(&declog.Record{Kind: declog.KindMeta, Meta: &declog.Meta{Source: "tapsim", LinkNames: names}})
	}
	rec := span.NewRecorder()
	eng := sim.New(g, topology.NewCachedRouting(r), core.New(core.DefaultConfig()), specs, sim.Config{
		RecordSegments: true, Sink: declog.Sink{Log: dl, Spans: rec}, MaxTime: simtime.Time(4e12),
	})
	if _, err := eng.Run(); err != nil {
		dl.Close()
		return nil, nil, err
	}
	if err := dl.Close(); err != nil {
		return nil, nil, err
	}
	return rec.Snapshot(), g, nil
}

// writeTrace exports the tree as Chrome trace_event JSON with topology
// link names on the link tracks.
func writeTrace(w io.Writer, tree *span.Tree, g *topology.Graph) error {
	return span.WriteTraceEvents(w, tree, span.ExportOptions{
		LinkName: func(l int32) string { return g.Link(topology.LinkID(l)).Name },
	})
}

// printWhy renders the causal explanation of one task's fate. The special
// argument "rejected" picks the first discarded task of the run — a quick
// way to see an attribution chain without knowing task IDs up front.
func printWhy(out io.Writer, tree *span.Tree, g *topology.Graph, arg string) error {
	linkName := func(l int32) string { return g.Link(topology.LinkID(l)).Name }
	task := span.NoTask
	if arg == "rejected" {
		// Prefer a discarded task whose chain names holders (occupancy by
		// other tasks) over one doomed purely by its own infeasible flows.
		fallback := span.NoTask
		for i := range tree.Tasks {
			ts := &tree.Tasks[i]
			if ts.Outcome != span.OutcomeRejected && ts.Outcome != span.OutcomePreempted {
				continue
			}
			if fallback == span.NoTask {
				fallback = ts.Task
			}
			for _, blk := range ts.Blocks {
				if len(blk.Holders) > 0 {
					task = ts.Task
				}
			}
			if task != span.NoTask {
				break
			}
		}
		if task == span.NoTask {
			task = fallback
		}
		if task == span.NoTask {
			return fmt.Errorf("-why rejected: the run discarded no task")
		}
	} else {
		id, err := strconv.ParseInt(arg, 10, 64)
		if err != nil {
			return fmt.Errorf("-why wants a task ID or \"rejected\": %w", err)
		}
		task = id
	}
	_, err := io.WriteString(out, span.WhyText(tree, task, linkName))
	return err
}
