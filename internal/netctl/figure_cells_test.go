package netctl

import (
	"bytes"
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"taps/internal/core"
	"taps/internal/experiments"
	"taps/internal/obs/declog"
	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
	"taps/internal/workload"
)

// isDecision reports whether the kernel wrote a record of this kind:
// planning passes, attribution chains, admit/reject/preempt and commits.
func isDecision(k declog.Kind) bool {
	switch k {
	case declog.KindReplan, declog.KindAttr, declog.KindAdmit,
		declog.KindReject, declog.KindPreempt, declog.KindCommit:
		return true
	}
	return false
}

// readLog decodes a decision log held in memory.
func readLog(t *testing.T, w *declog.Writer) []declog.Record {
	t.Helper()
	b, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	recs, truncated, err := declog.Read(bytes.NewReader(b))
	if err != nil || truncated {
		t.Fatalf("read log: truncated=%v err=%v", truncated, err)
	}
	return recs
}

// simInputs is what a controller would have heard during a simulated
// run, read off its decision log: each Task record is a probe at the
// arrival, each delivered flow's FlowEnd a TERM at the finish. They are
// merged by time, TERMs ahead of arrivals at equal times, as the
// simulator takes its finishes before its arrivals.
func simInputs(recs []declog.Record) []declog.Record {
	var in []declog.Record
	for _, r := range recs {
		if r.Kind == declog.KindTask || r.Kind == declog.KindFlowEnd && r.Done {
			in = append(in, r)
		}
	}
	slices.SortStableFunc(in, func(a, b declog.Record) int {
		if c := cmp.Compare(a.Time, b.Time); c != 0 {
			return c
		}
		return cmp.Compare(b.Kind, a.Kind) // KindFlowEnd > KindTask
	})
	return in
}

// decideCell runs one figure cell through the simulator and then its
// inputs through a fresh controller's handlers, and returns the decision
// records each wrote.
func decideCell(t *testing.T, g *topology.Graph, r topology.Routing, specs []sim.TaskSpec) (fromSim, fromCtl []declog.Record) {
	t.Helper()
	w := &declog.Writer{}
	eng := sim.New(g, r, core.New(core.DefaultConfig()), specs,
		sim.Config{MaxTime: simtime.Time(4e12), Sink: declog.Sink{Log: w}})
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	simRecs := readLog(t, w)

	c := NewController(g, r, ControllerConfig{})
	c.mu.Lock()
	for _, in := range simInputs(simRecs) {
		switch in.Kind {
		case declog.KindTask:
			p := ProbeMsg{Task: in.Task, Deadline: in.Deadline, Flows: make([]FlowInfo, len(in.Flows))}
			for i, fi := range in.Flows {
				p.Flows[i] = FlowInfo{ID: uint64(fi.ID), Src: topology.NodeID(fi.Src), Dst: topology.NodeID(fi.Dst), Size: fi.Size}
			}
			c.probe(in.Time, p)
		case declog.KindFlowEnd:
			c.svc.Term(in.Time, uint64(in.Flow), 0)
		}
	}
	c.mu.Unlock()
	ctlRecs := readLog(t, c.sink.Log)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return decisions(simRecs), decisions(ctlRecs)
}

// decisions keeps the records the kernel wrote.
func decisions(recs []declog.Record) []declog.Record {
	var out []declog.Record
	for _, r := range recs {
		if isDecision(r.Kind) {
			out = append(out, r)
		}
	}
	return out
}

// TestControllerDecidesEveryFigureCell: every laptop-scale cell of Figs. 6
// and 7 (five mean deadlines, seeds 1–10; -short runs seed 1) runs once
// through sim.Engine + core.Scheduler with a decision log in memory. Its
// arrivals and deliveries are then fed, at their logged times, to a fresh
// controller's probe and TERM handlers, with no socket, agent or clock.
// Both are adapters around one kernel, so every decision record must be
// equal, one for one.
func TestControllerDecidesEveryFigureCell(t *testing.T) {
	scale := experiments.LaptopScale()
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if testing.Short() {
		seeds = seeds[:1]
	}
	tree, treeRouting := topology.SingleRootedTree(scale.Tree)
	fat, fatRouting := topology.FatTree(topology.FatTreeSpec{K: scale.FatTreeK, LinkCapacity: topology.Gbps(1)})
	figs := []struct {
		name  string
		g     *topology.Graph
		r     topology.Routing
		flows int
	}{
		{"fig6", tree, topology.NewCachedRouting(treeRouting), scale.FlowsPerTask},
		{"fig7", fat, topology.NewCachedRouting(fatRouting), scale.FatFlowsPerTask},
	}
	var records, rejects, cells int
	for _, fig := range figs {
		for _, ms := range experiments.DeadlineSweepPoints {
			for _, seed := range seeds {
				specs := workload.Generate(fig.g, workload.Spec{
					Tasks:            scale.Tasks,
					MeanFlowsPerTask: fig.flows,
					ArrivalRate:      scale.ArrivalRate,
					MeanDeadline:     simtime.FromMillis(ms),
					Seed:             seed,
				})
				cell := fmt.Sprintf("%s deadline %gms seed %d", fig.name, ms, seed)
				fromSim, fromCtl := decideCell(t, fig.g, fig.r, specs)
				if len(fromSim) != len(fromCtl) {
					t.Fatalf("%s: the simulator logged %d decision records, the controller %d", cell, len(fromSim), len(fromCtl))
				}
				for i := range fromSim {
					if !reflect.DeepEqual(fromSim[i], fromCtl[i]) {
						t.Fatalf("%s: decision record %d differs\n sim %+v\n ctl %+v", cell, i, fromSim[i], fromCtl[i])
					}
					if fromSim[i].Kind == declog.KindReject {
						rejects++
					}
				}
				records += len(fromSim)
				cells++
			}
		}
	}
	if rejects == 0 {
		t.Fatal("no cell rejected a task: the comparison never reached the reject rule")
	}
	t.Logf("%d cells: %d decision records equal, %d of them rejects", cells, records, rejects)
}
