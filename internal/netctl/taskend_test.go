package netctl

import (
	"bytes"
	"testing"

	"taps/internal/obs/declog"
	"taps/internal/obs/span"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// TestLocalFlowsEndTheirTaskOnce: a task whose flows are all local
// (src == dst) is finished on arrival. Its log holds one FlowEnd per flow
// and then exactly one TaskEnd, not one TaskEnd per flow that ended.
func TestLocalFlowsEndTheirTaskOnce(t *testing.T) {
	g, r := topology.FatTree(topology.FatTreeSpec{K: 4, LinkCapacity: topology.Gbps(1)})
	c := NewController(g, topology.NewCachedRouting(r), ControllerConfig{Speedup: 1e-9})
	defer c.Close()
	hosts := g.Hosts()
	c.onProbe(ProbeMsg{Task: 7, Deadline: 10 * simtime.Millisecond, Flows: []FlowInfo{
		{ID: 71, Src: hosts[0], Dst: hosts[0], Size: 125_000},
		{ID: 72, Src: hosts[5], Dst: hosts[5], Size: 250_000},
	}})
	b, err := c.DecisionLog().Bytes()
	if err != nil {
		t.Fatal(err)
	}
	recs, truncated, err := declog.Read(bytes.NewReader(b))
	if err != nil || truncated {
		t.Fatalf("read log: err=%v truncated=%v", err, truncated)
	}
	var flowEnds []int64
	var taskEnds []span.Outcome
	for _, rec := range recs {
		switch {
		case rec.Kind == declog.KindFlowEnd:
			flowEnds = append(flowEnds, rec.Flow)
		case rec.Kind == declog.KindTaskEnd && rec.Task == 7:
			taskEnds = append(taskEnds, rec.Outcome)
		}
	}
	if len(flowEnds) != 2 || flowEnds[0] != 71 || flowEnds[1] != 72 {
		t.Errorf("FlowEnd records for flows %v, want [71 72]", flowEnds)
	}
	if len(taskEnds) != 1 || taskEnds[0] != span.OutcomeCompleted {
		t.Errorf("task 7 ended %d times with outcomes %v, want once, completed", len(taskEnds), taskEnds)
	}
}
