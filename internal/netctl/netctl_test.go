package netctl_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"taps/internal/netctl"
	"taps/internal/simtime"
	"taps/internal/topology"
	"taps/internal/workload"
)

// startController boots a controller on a loopback port over the §VI
// testbed topology, sped up 5x. Deadlines in these tests are hundreds of
// virtual ms so that real network/scheduler latency (amplified by the
// speedup) cannot eat them.
func startController(t *testing.T) (*netctl.Controller, string, *topology.Graph) {
	t.Helper()
	g, r := topology.PartialFatTree(topology.PaperTestbed())
	ctl := netctl.NewController(g, r, netctl.ControllerConfig{Speedup: 5})
	errCh := make(chan error, 1)
	go func() { errCh <- ctl.Serve("127.0.0.1:0") }()
	deadline := time.Now().Add(2 * time.Second)
	for ctl.Addr() == "" {
		if time.Now().After(deadline) {
			t.Fatal("controller did not bind")
		}
		time.Sleep(time.Millisecond)
	}
	t.Cleanup(func() {
		ctl.Close()
		if err := <-errCh; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return ctl, ctl.Addr(), g
}

func dial(t *testing.T, addr, name string, host topology.NodeID) *netctl.Agent {
	t.Helper()
	a, err := netctl.Dial(addr, name, host)
	if err != nil {
		t.Fatalf("dial %s: %v", name, err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

// TestServeAfterCloseReturns: a Close that lands before Serve has bound
// (an interrupt during start-up) still makes Serve return.
func TestServeAfterCloseReturns(t *testing.T) {
	g, r := topology.PartialFatTree(topology.PaperTestbed())
	ctl := netctl.NewController(g, r, netctl.ControllerConfig{})
	if err := ctl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ctl.Serve("127.0.0.1:0"); err != nil {
		t.Fatalf("serve after close: %v", err)
	}
}

func TestSingleTaskOverTCP(t *testing.T) {
	ctl, addr, g := startController(t)
	hosts := g.Hosts()
	a0 := dial(t, addr, "a0", hosts[0])
	a1 := dial(t, addr, "a1", hosts[2])

	// 125 KB at 1 Gbps = 1 ms virtual; deadline 100 ms virtual.
	err := a0.SubmitTask(1, 500*simtime.Millisecond, []netctl.FlowInfo{
		{ID: 101, Src: hosts[0], Dst: hosts[7], Size: 125_000},
		{ID: 102, Src: hosts[2], Dst: hosts[5], Size: 125_000},
	})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// SubmitTask returns on a0's copy of the grant; a1's read loop may not
	// have seen its copy yet, so a1.WaitLocalFlows could return before a1
	// has a flow to wait for. The controller hearing both TERMs implies
	// that both agents processed the grant and ran their flows to the end.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := ctl.Snapshot()
		if snap.PendingFlows == 0 {
			if snap.OverlapViolations != 0 {
				t.Fatalf("overlaps: %d", snap.OverlapViolations)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("TERMs never drained: %+v", snap)
		}
		time.Sleep(time.Millisecond)
	}
	a0.WaitLocalFlows()
	a1.WaitLocalFlows()

	o0, o1 := a0.Outcomes(), a1.Outcomes()
	if len(o0) != 1 || len(o1) != 1 {
		t.Fatalf("outcomes: %d + %d, want 1 + 1", len(o0), len(o1))
	}
	for _, o := range append(o0, o1...) {
		if !o.OnTime {
			t.Fatalf("flow %d late: finish=%d deadline=%d", o.ID, o.Finish, o.Deadline)
		}
	}
}

// TestWelcomedAgentIsRegistered: an agent that has read its welcome frame
// is already in the controller's broadcast set, so a decision made right
// after Dial returns reaches it. (The welcome used to go out first, and a
// grant decided before the registration never arrived.)
func TestWelcomedAgentIsRegistered(t *testing.T) {
	ctl, addr, g := startController(t)
	for i := 0; i < 1000; i++ {
		d := dialWire(t, addr, g.Hosts()[0])
		if n := ctl.Snapshot().Agents; n != 1 {
			t.Fatalf("connection %d: welcome read with %d agents registered, want 1", i, n)
		}
		d.conn.Close()
		for deadline := time.Now().Add(5 * time.Second); ctl.Snapshot().Agents != 0; time.Sleep(50 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("connection %d: closed agent never unregistered", i)
			}
		}
	}
}

func TestInfeasibleTaskRejectedOverTCP(t *testing.T) {
	_, addr, g := startController(t)
	hosts := g.Hosts()
	a := dial(t, addr, "a", hosts[0])
	// 125 MB against a 10 ms virtual deadline cannot fit 1 Gbps.
	err := a.SubmitTask(7, 10*simtime.Millisecond, []netctl.FlowInfo{
		{ID: 700, Src: hosts[0], Dst: hosts[7], Size: 125_000_000},
	})
	if !errors.Is(err, netctl.ErrRejected) {
		t.Fatalf("err = %v, want ErrRejected", err)
	}
	if len(a.Outcomes()) != 0 {
		t.Fatal("rejected task must not execute")
	}
}

func TestConcurrentTasksExclusiveSlices(t *testing.T) {
	ctl, addr, g := startController(t)
	hosts := g.Hosts()
	a := dial(t, addr, "a", hosts[0])
	b := dial(t, addr, "b", hosts[1])

	// Both tasks send from hosts 0 and 1 to the same destination host:
	// its downlink forces serialization, which the planner must resolve
	// with exclusive slices.
	if err := a.SubmitTask(1, 600*simtime.Millisecond, []netctl.FlowInfo{
		{ID: 1, Src: hosts[0], Dst: hosts[7], Size: 250_000},
	}); err != nil {
		t.Fatalf("task 1: %v", err)
	}
	if err := b.SubmitTask(2, 600*simtime.Millisecond, []netctl.FlowInfo{
		{ID: 2, Src: hosts[1], Dst: hosts[7], Size: 250_000},
	}); err != nil {
		t.Fatalf("task 2: %v", err)
	}
	snap := ctl.Snapshot()
	if snap.OverlapViolations != 0 {
		t.Fatalf("planned slices overlap on a link: %d violations", snap.OverlapViolations)
	}
	a.WaitLocalFlows()
	b.WaitLocalFlows()
	for _, o := range append(a.Outcomes(), b.Outcomes()...) {
		if !o.OnTime {
			t.Fatalf("flow %d late", o.ID)
		}
	}
}

func TestRejectDoesNotDisturbAdmitted(t *testing.T) {
	_, addr, g := startController(t)
	hosts := g.Hosts()
	a := dial(t, addr, "a", hosts[0])

	if err := a.SubmitTask(1, 500*simtime.Millisecond, []netctl.FlowInfo{
		{ID: 11, Src: hosts[0], Dst: hosts[7], Size: 500_000},
	}); err != nil {
		t.Fatalf("task 1: %v", err)
	}
	// Hopeless newcomer.
	if err := a.SubmitTask(2, 1*simtime.Millisecond, []netctl.FlowInfo{
		{ID: 22, Src: hosts[0], Dst: hosts[6], Size: 50_000_000},
	}); !errors.Is(err, netctl.ErrRejected) {
		t.Fatalf("task 2 err = %v", err)
	}
	a.WaitLocalFlows()
	outs := a.Outcomes()
	if len(outs) != 1 || outs[0].ID != 11 || !outs[0].OnTime {
		t.Fatalf("admitted task was disturbed: %+v", outs)
	}
}

func TestManyAgentsManyTasks(t *testing.T) {
	ctl, addr, g := startController(t)
	hosts := g.Hosts()
	agents := make([]*netctl.Agent, 4)
	for i := range agents {
		agents[i] = dial(t, addr, string(rune('a'+i)), hosts[i*2])
	}
	accepted := 0
	for i := 0; i < 8; i++ {
		err := agents[i%4].SubmitTask(int64(100+i), 800*simtime.Millisecond, []netctl.FlowInfo{
			{ID: uint64(1000 + i), Src: hosts[(i*2)%8], Dst: hosts[(i*2+7)%8], Size: 125_000},
		})
		if err == nil {
			accepted++
		} else if !errors.Is(err, netctl.ErrRejected) {
			t.Fatalf("task %d: %v", i, err)
		}
	}
	if accepted == 0 {
		t.Fatal("no tasks accepted")
	}
	for _, ag := range agents {
		ag.WaitLocalFlows()
	}
	if snap := ctl.Snapshot(); snap.OverlapViolations != 0 {
		t.Fatalf("overlaps: %d", snap.OverlapViolations)
	}
	total := 0
	for _, ag := range agents {
		for _, o := range ag.Outcomes() {
			if !o.OnTime {
				t.Fatalf("flow %d late", o.ID)
			}
			total++
		}
	}
	if total != accepted {
		t.Fatalf("executed %d flows, accepted %d", total, accepted)
	}
}

func TestSubmitTraceOverTCP(t *testing.T) {
	ctl, addr, g := startController(t)
	hosts := g.Hosts()
	agents := make([]*netctl.Agent, 0, len(hosts))
	for i, h := range hosts {
		agents = append(agents, dial(t, addr, fmt.Sprintf("h%d", i), h))
	}
	// A generated workload, exactly as the simulator consumes it —
	// small flows and slack deadlines (at least 500 ms) so the run is
	// timing-robust.
	tasks := workload.Generate(g, workload.Spec{
		Tasks:            6,
		MeanFlowsPerTask: 3,
		ArrivalRate:      2000,
		MeanDeadline:     800 * simtime.Millisecond,
		MeanFlowSize:     60 * 1024,
		Seed:             31,
	})
	for i := range tasks {
		tasks[i].Deadline = max(tasks[i].Deadline, 500*simtime.Millisecond)
	}
	accepted, rejected, err := agents[0].SubmitTrace(tasks, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if accepted+rejected != 6 {
		t.Fatalf("accepted %d + rejected %d != 6", accepted, rejected)
	}
	if accepted == 0 {
		t.Fatal("no tasks accepted")
	}
	for _, a := range agents {
		a.WaitLocalFlows()
	}
	late := 0
	executed := 0
	for _, a := range agents {
		for _, o := range a.Outcomes() {
			executed++
			if !o.OnTime {
				late++
			}
		}
	}
	if executed == 0 {
		t.Fatal("nothing executed")
	}
	if late != 0 {
		t.Fatalf("%d of %d executed flows late", late, executed)
	}
	if snap := ctl.Snapshot(); snap.OverlapViolations != 0 {
		t.Fatalf("overlaps: %d", snap.OverlapViolations)
	}
}
