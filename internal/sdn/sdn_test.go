package sdn_test

import (
	"testing"

	"taps/internal/sdn"
	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
)

func testbedTopo() (*topology.Graph, topology.Routing) {
	return topology.PartialFatTree(topology.PaperTestbed())
}

func runBed(t *testing.T, mode sdn.Mode, cfg sdn.Config, tasks []sim.TaskSpec) *sdn.Result {
	t.Helper()
	g, r := testbedTopo()
	res, err := sdn.New(g, r, mode, cfg, tasks).Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func oneTask(g *topology.Graph, size int64, deadline simtime.Time) []sim.TaskSpec {
	hosts := g.Hosts()
	return []sim.TaskSpec{{
		Arrival:  0,
		Deadline: deadline,
		Flows: []sim.FlowSpec{
			{Src: hosts[0], Dst: hosts[7], Size: size},
			{Src: hosts[2], Dst: hosts[5], Size: size},
		},
	}}
}

func TestTAPSSingleTaskCompletes(t *testing.T) {
	g, _ := testbedTopo()
	res := runBed(t, sdn.ModeTAPS, sdn.Config{}, oneTask(g, 100*1024, 40*simtime.Millisecond))
	if res.TasksCompleted != 1 {
		t.Fatalf("tasks completed = %d", res.TasksCompleted)
	}
	if res.FlowsOnTime != 2 {
		t.Fatalf("flows on time = %d", res.FlowsOnTime)
	}
	if res.WastedBytes != 0 {
		t.Fatalf("wasted = %g", res.WastedBytes)
	}
}

func TestControlPlaneMessageFlow(t *testing.T) {
	g, _ := testbedTopo()
	res := runBed(t, sdn.ModeTAPS, sdn.Config{}, oneTask(g, 50*1024, 40*simtime.Millisecond))
	// probe + grant + 2 TERM = 4 messages minimum.
	if res.ControlMessages < 4 {
		t.Fatalf("control messages = %d, want >= 4", res.ControlMessages)
	}
	// Each flow crosses up to 5 switches (host links need no entries).
	if res.TableInstalls == 0 {
		t.Fatal("no flow-table installs recorded")
	}
	if res.TableRejects != 0 {
		t.Fatalf("unexpected table rejects: %d", res.TableRejects)
	}
}

func TestTAPSRejectsInfeasibleTask(t *testing.T) {
	g, _ := testbedTopo()
	// 10 MB against a 2 ms deadline cannot fit a 1 Gbps path.
	res := runBed(t, sdn.ModeTAPS, sdn.Config{}, oneTask(g, 10*1024*1024, 2*simtime.Millisecond))
	if res.TasksRejected != 1 {
		t.Fatalf("rejected = %d", res.TasksRejected)
	}
	if res.TasksCompleted != 0 || res.WastedBytes != 0 {
		t.Fatalf("completed=%d wasted=%g; a rejected task must not transmit",
			res.TasksCompleted, res.WastedBytes)
	}
}

func TestFairSharingStopsExpired(t *testing.T) {
	g, _ := testbedTopo()
	res := runBed(t, sdn.ModeFairSharing, sdn.Config{}, oneTask(g, 10*1024*1024, 2*simtime.Millisecond))
	if res.TasksCompleted != 0 {
		t.Fatal("infeasible task cannot complete")
	}
	if res.WastedBytes <= 0 {
		t.Fatal("fair sharing transmits until the deadline; bytes must be wasted")
	}
	// It must stop at the deadline: at most ~2 ms * 2 Gbps of waste.
	maxWaste := 2.0 * 2e9 / 8 * 2e-3
	if res.WastedBytes > maxWaste {
		t.Fatalf("wasted %g exceeds the deadline bound %g", res.WastedBytes, maxWaste)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	g, _ := testbedTopo()
	tasks := oneTask(g, 123*1024, 17*simtime.Millisecond)
	a := runBed(t, sdn.ModeTAPS, sdn.Config{}, tasks)
	b := runBed(t, sdn.ModeTAPS, sdn.Config{}, tasks)
	if a.ControlMessages != b.ControlMessages || a.FlowsOnTime != b.FlowsOnTime ||
		len(a.Timeline) != len(b.Timeline) {
		t.Fatal("testbed runs are not deterministic")
	}
	for i := range a.Timeline {
		if a.Timeline[i].DeliveredBytes != b.Timeline[i].DeliveredBytes {
			t.Fatalf("tick %d differs", i)
		}
	}
}

func TestControlLatencyDelaysStart(t *testing.T) {
	g, _ := testbedTopo()
	tasks := oneTask(g, 100*1024, 40*simtime.Millisecond)
	fast := runBed(t, sdn.ModeTAPS, sdn.Config{ControlLatencyTicks: 1}, tasks)
	slow := runBed(t, sdn.ModeTAPS, sdn.Config{ControlLatencyTicks: 20}, tasks)
	firstByte := func(r *sdn.Result) simtime.Time {
		for _, ts := range r.Timeline {
			if ts.DeliveredBytes > 0 {
				return ts.Time
			}
		}
		return -1
	}
	if firstByte(slow) <= firstByte(fast) {
		t.Fatalf("higher control latency must delay the first byte: %d vs %d",
			firstByte(slow), firstByte(fast))
	}
}

func TestTinyFlowTableBlocksFlows(t *testing.T) {
	g, _ := testbedTopo()
	hosts := g.Hosts()
	// Several concurrent flows through shared core switches with a
	// 1-entry table: some installs must be rejected.
	var flows []sim.FlowSpec
	for i := 0; i < 6; i++ {
		flows = append(flows, sim.FlowSpec{
			Src: hosts[i%4], Dst: hosts[4+(i+1)%4], Size: 200 * 1024,
		})
	}
	tasks := []sim.TaskSpec{{Arrival: 0, Deadline: 100 * simtime.Millisecond, Flows: flows}}
	res := runBed(t, sdn.ModeTAPS, sdn.Config{FlowTableCapacity: 1}, tasks)
	if res.TableRejects == 0 {
		t.Fatal("a 1-entry flow table must reject some installs")
	}
}

func TestFairSharingSplitsBottleneck(t *testing.T) {
	g, _ := testbedTopo()
	hosts := g.Hosts()
	// Two flows into the same destination host: its downlink is the
	// bottleneck, each flow gets half.
	tasks := []sim.TaskSpec{{
		Arrival:  0,
		Deadline: 100 * simtime.Millisecond,
		Flows: []sim.FlowSpec{
			{Src: hosts[0], Dst: hosts[7], Size: 125000}, // 1 ms at line rate
			{Src: hosts[2], Dst: hosts[7], Size: 125000},
		},
	}}
	res := runBed(t, sdn.ModeFairSharing, sdn.Config{}, tasks)
	if res.FlowsOnTime != 2 {
		t.Fatalf("flows on time = %d", res.FlowsOnTime)
	}
	// Sharing the 1 Gbps downlink, both need ~2 ms; find completion from
	// the timeline (delivery stops after the last useful tick).
	var last simtime.Time
	for _, ts := range res.Timeline {
		if ts.DeliveredBytes > 0 {
			last = ts.Time
		}
	}
	if last < 1900 || last > 2300 {
		t.Fatalf("shared completion at %d µs, want ~2 ms", last)
	}
}

func TestEffectiveThroughputSeries(t *testing.T) {
	g, _ := testbedTopo()
	res := runBed(t, sdn.ModeTAPS, sdn.Config{}, oneTask(g, 500*1024, 40*simtime.Millisecond))
	ms, pct := res.EffectiveThroughput()
	if len(ms) == 0 || len(ms) != len(pct) {
		t.Fatalf("series lengths: %d %d", len(ms), len(pct))
	}
	peakSeen := 0.0
	for _, p := range pct {
		if p < 0 || p > 100+1e-9 {
			t.Fatalf("percentage out of range: %g", p)
		}
		peakSeen = max(peakSeen, p)
	}
	// TAPS wastes nothing here: the busy buckets must be near 100%.
	if peakSeen < 99 {
		t.Fatalf("peak effective throughput = %g, want ~100", peakSeen)
	}
}

func TestMessageLossRecoveredByRetry(t *testing.T) {
	g, _ := testbedTopo()
	tasks := oneTask(g, 100*1024, 60*simtime.Millisecond)
	// Drop every 2nd control message: the first probe (or its reply)
	// will be lost; re-probing plus idempotent replies must still land
	// the task.
	res := runBed(t, sdn.ModeTAPS, sdn.Config{DropEveryN: 2}, tasks)
	if res.DroppedMessages == 0 {
		t.Fatal("fault injection did not drop anything")
	}
	if res.TasksCompleted != 1 {
		t.Fatalf("task should still complete despite losses: %d/%d (dropped %d)",
			res.TasksCompleted, res.Tasks, res.DroppedMessages)
	}
	// Retries mean strictly more traffic than the loss-free run.
	clean := runBed(t, sdn.ModeTAPS, sdn.Config{}, tasks)
	if res.ControlMessages <= clean.ControlMessages {
		t.Fatalf("expected retransmissions: %d <= %d", res.ControlMessages, clean.ControlMessages)
	}
}

// TestPlanTakesEffectWithItsReply: a decision plans its slices from the
// instant its reply reaches the senders, so that is when its plan takes
// effect. A granted sender keeps the slices of the plan before until
// then, and a later task's decision never leaves it idle. (Installing the
// plan at the decision tick stalled the running flow for the whole
// control latency: 5 ticks here.)
func TestPlanTakesEffectWithItsReply(t *testing.T) {
	g, _ := testbedTopo()
	hosts := g.Hosts()
	tasks := []sim.TaskSpec{
		{Arrival: 0, Deadline: 60 * simtime.Millisecond,
			Flows: []sim.FlowSpec{{Src: hosts[0], Dst: hosts[7], Size: 1_000_000}}},
		{Arrival: 2 * simtime.Millisecond, Deadline: 20 * simtime.Millisecond,
			Flows: []sim.FlowSpec{{Src: hosts[4], Dst: hosts[5], Size: 10_000}}},
	}
	res := runBed(t, sdn.ModeTAPS, sdn.Config{ControlLatencyTicks: 5}, tasks)
	if res.TasksCompleted != 2 {
		t.Fatalf("tasks completed = %d, want 2", res.TasksCompleted)
	}
	started, stalled := false, 0
	for _, ts := range res.Timeline {
		started = started || ts.DeliveredBytes > 0
		if started && ts.ActiveFlows > 0 && ts.DeliveredBytes == 0 {
			stalled++
		}
	}
	if stalled != 0 {
		t.Fatalf("%d ticks with flows active and nothing delivered after the first byte, want 0", stalled)
	}
}

func TestMessageLossDelaysButKeepsDeterminism(t *testing.T) {
	g, _ := testbedTopo()
	tasks := oneTask(g, 100*1024, 60*simtime.Millisecond)
	a := runBed(t, sdn.ModeTAPS, sdn.Config{DropEveryN: 3}, tasks)
	b := runBed(t, sdn.ModeTAPS, sdn.Config{DropEveryN: 3}, tasks)
	if a.ControlMessages != b.ControlMessages || a.DroppedMessages != b.DroppedMessages {
		t.Fatal("fault injection must be deterministic")
	}
}

func TestLostTermLeaksTableEntries(t *testing.T) {
	g, _ := testbedTopo()
	hosts := g.Hosts()
	tasks := []sim.TaskSpec{{Arrival: 0, Deadline: 60 * simtime.Millisecond,
		Flows: []sim.FlowSpec{{Src: hosts[0], Dst: hosts[7], Size: 50 * 1024}}}}
	// Drop exactly the 3rd message (probe=1, grant=2, TERM=3): the
	// completion notice is lost and the run must still terminate (the
	// controller just keeps the stale entries).
	res := runBed(t, sdn.ModeTAPS, sdn.Config{DropEveryN: 3}, tasks)
	if res.TasksCompleted != 1 {
		t.Fatalf("tasks = %d", res.TasksCompleted)
	}
	if res.DroppedMessages == 0 {
		t.Fatal("expected the TERM to be dropped")
	}
}

func TestModeString(t *testing.T) {
	if sdn.ModeTAPS.String() != "TAPS" || sdn.ModeFairSharing.String() != "FairSharing" {
		t.Fatal("mode strings")
	}
}

func TestMultipleTasksWithPreemptionPressure(t *testing.T) {
	g, _ := testbedTopo()
	hosts := g.Hosts()
	var tasks []sim.TaskSpec
	for i := 0; i < 8; i++ {
		tasks = append(tasks, sim.TaskSpec{
			Arrival:  simtime.Time(i) * 2 * simtime.Millisecond,
			Deadline: 15 * simtime.Millisecond,
			Flows: []sim.FlowSpec{
				{Src: hosts[i%8], Dst: hosts[(i+3)%8], Size: 400 * 1024},
				{Src: hosts[(i+1)%8], Dst: hosts[(i+5)%8], Size: 200 * 1024},
			},
		})
	}
	res := runBed(t, sdn.ModeTAPS, sdn.Config{}, tasks)
	// Consistency: accepted tasks complete or were preempted; totals add up.
	if res.TasksCompleted+res.TasksRejected > res.Tasks {
		t.Fatalf("%d completed + %d rejected > %d tasks",
			res.TasksCompleted, res.TasksRejected, res.Tasks)
	}
	if res.TasksCompleted == 0 {
		t.Fatal("some tasks should complete")
	}
}
