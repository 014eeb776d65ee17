package netctl

import (
	"path/filepath"
	"reflect"
	"testing"

	"taps/internal/core"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// TestRemainingCarriesSentBytesAcrossReplans is the regression test for
// the forgotten-progress bug: the controller derives a flow's progress
// from its grant, and every re-plan replaces the grant, so the bytes sent
// under superseded grants must be carried forward. A 25 MB flow at 1 Gb/s
// needs 200 ms; unrelated probes re-plan it at 100 ms and at 180 ms, and
// each new grant must cover exactly what is left — 100 ms, then 20 ms —
// ending at 200 ms throughout, and a third at 190 ms must find 1.25 MB
// left. (Measuring progress against the current
// slices alone re-reserved 99 ms and then 119 ms.) A controller restarted
// on the decision log must come back believing the same. The kernel is
// driven directly, every input on its own injected now: no clock, no sleep.
func TestRemainingCarriesSentBytesAcrossReplans(t *testing.T) {
	g, r := topology.FatTree(topology.FatTreeSpec{K: 4, LinkCapacity: topology.Gbps(1)})
	c, logPath := loggedController(t, g, r)
	hosts := g.Hosts()
	probe := func(now simtime.Time, task int64, src, dst int, size int64) {
		t.Helper()
		probeKernel(t, c, now, task, now+simtime.Second, hosts[src], hosts[dst], size)
	}
	long := func() *core.Flow { return c.svc.Kernel().Flow(1) }
	requireGrant := func(from, total simtime.Time) {
		t.Helper()
		ivs := long().Slices.Intervals()
		if len(ivs) != 1 || ivs[0].Start != from || ivs[0].End != 200*simtime.Millisecond {
			t.Fatalf("long flow's slices = %v, want one window [%d, 200 ms)", ivs, from)
		}
		if got := long().Slices.Total(); got != total {
			t.Fatalf("long flow re-reserved %d us at t=%d, want %d", got, from, total)
		}
	}

	probe(0, 1, 0, 15, 25_000_000)
	requireGrant(0, 200*simtime.Millisecond)
	// Hosts 4 -> 8 and 5 -> 9 share no link with 0 -> 15's uplink or
	// downlink: the probes only trigger the re-plan.
	probe(100*simtime.Millisecond, 2, 4, 8, 125_000)
	requireGrant(100*simtime.Millisecond, 100*simtime.Millisecond)
	probe(180*simtime.Millisecond, 3, 5, 9, 125_000)
	requireGrant(180*simtime.Millisecond, 20*simtime.Millisecond)
	probe(190*simtime.Millisecond, 4, 6, 10, 125_000)
	if got := long().Bytes; got != 1_250_000 {
		t.Fatalf("remaining at 190 ms = %g bytes, want 1.25 MB", got)
	}

	requireRecoveredAlike(t, c, g, r, logPath, 3)
}

// TestRecoveryCountsEachGrantAtItsOwnLineRate: what a superseded grant
// carried depends on the route it ran on. A 10 MB flow between two
// dual-homed hosts starts on the 1 Gb/s side; at 40 ms a more urgent task
// takes that side and the flow, 5 MB on, moves to the 0.5 Gb/s side; at
// 80 ms it has 2.5 MB left — 40 ms at each rate. A controller restarted on
// the log must work that out too, not charge all 80 ms at one rate.
func TestRecoveryCountsEachGrantAtItsOwnLineRate(t *testing.T) {
	g := topology.NewGraph()
	a := g.AddNode(topology.Host, "a", 0, 0)
	b := g.AddNode(topology.Host, "b", 0, 0)
	fast := g.AddNode(topology.ToR, "fast", 1, 0)
	slow := g.AddNode(topology.ToR, "slow", 1, 0)
	for _, h := range []topology.NodeID{a, b} {
		g.AddDuplex(h, fast, topology.Gbps(1))
		g.AddDuplex(h, slow, topology.Gbps(0.5))
	}
	r := topology.NewBFSRouting(g)
	c, logPath := loggedController(t, g, r)
	long := func() *core.Flow { return c.svc.Kernel().Flow(1) }

	probeKernel(t, c, 0, 1, simtime.Second, a, b, 10_000_000)
	first := long().Path
	if got := g.MinCapacity(first); got != topology.Gbps(1) {
		t.Fatalf("the long flow starts at %g B/s, want the 1 Gb/s side", got)
	}
	probeKernel(t, c, 40*simtime.Millisecond, 2, 240*simtime.Millisecond, a, b, 12_500_000)
	if long().Bytes != 5_000_000 || g.MinCapacity(long().Path) != topology.Gbps(0.5) {
		t.Fatalf("at 40 ms the long flow has %g bytes left on %v, want 5 MB moved to the 0.5 Gb/s side", long().Bytes, long().Path)
	}
	probeKernel(t, c, 80*simtime.Millisecond, 3, simtime.Second, b, a, 125_000)
	if long().Bytes != 2_500_000 {
		t.Fatalf("at 80 ms the long flow has %g bytes left, want 2.5 MB", long().Bytes)
	}
	requireRecoveredAlike(t, c, g, r, logPath, 3)
}

// loggedController returns a controller writing a decision log, to be
// driven through its kernel on injected time.
func loggedController(t *testing.T, g *topology.Graph, r topology.Routing) (*Controller, string) {
	t.Helper()
	c := NewController(g, r, ControllerConfig{})
	logPath := filepath.Join(t.TempDir(), "ctl.dlg")
	if err := c.EnableDecisionLog(logPath); err != nil {
		t.Fatal(err)
	}
	return c, logPath
}

// probeKernel decides a one-flow task (flow key = task ID) at now through
// the controller's probe handler, and requires it accepted.
func probeKernel(t *testing.T, c *Controller, now simtime.Time, task int64, deadline simtime.Time, src, dst topology.NodeID, size int64) {
	t.Helper()
	d := c.probe(now, ProbeMsg{Task: task, Deadline: deadline,
		Flows: []FlowInfo{{ID: uint64(task), Src: src, Dst: dst, Size: size}}}).Decision
	if d != core.Accept {
		t.Fatalf("task %d at t=%d: %v, want accept", task, now, d)
	}
}

// requireRecoveredAlike closes c and requires a controller restarted on
// its log to hold flows 1..n exactly as c did.
func requireRecoveredAlike(t *testing.T, c *Controller, g *topology.Graph, r topology.Routing, logPath string, n uint64) {
	t.Helper()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	recovered := NewController(g, r, ControllerConfig{})
	if err := recovered.EnableDecisionLog(logPath); err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	for key := uint64(1); key <= n; key++ {
		live, got := c.svc.Kernel().Flow(key), recovered.svc.Kernel().Flow(key)
		if got == nil || got.Bytes != live.Bytes || !reflect.DeepEqual(got.Path, live.Path) ||
			!reflect.DeepEqual(got.Slices.Intervals(), live.Slices.Intervals()) {
			t.Fatalf("flow %d recovered as %+v, the live controller held %+v", key, got, live)
		}
	}
}
