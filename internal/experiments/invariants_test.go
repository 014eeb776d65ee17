package experiments

import (
	"math/rand"
	"testing"

	"taps/internal/metrics"
	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
	"taps/internal/workload"
)

// TestCrossSchedulerInvariants runs every scheduler over randomized
// workloads with per-event validation on and checks the engine- and
// accounting-level invariants that must hold for ANY policy:
//
//   - the run terminates without engine errors and within MaxTime;
//   - no link is ever oversubscribed (enforced per event by Validate);
//   - a done flow carried exactly its size; an unfinished one carried less;
//   - OnTime implies done before the deadline;
//   - a rejected task has no on-time task credit;
//   - metric ratios are all within [0, 1] and byte accounting adds up.
func TestCrossSchedulerInvariants(t *testing.T) {
	topos := []struct {
		name string
		g    *topology.Graph
		r    topology.Routing
	}{}
	{
		g, r := topology.SingleRootedTree(topology.SingleRootedTreeSpec{
			Pods: 2, RacksPerPod: 2, HostsPerRack: 4, LinkCapacity: topology.Gbps(1)})
		topos = append(topos, struct {
			name string
			g    *topology.Graph
			r    topology.Routing
		}{"tree", g, topology.NewCachedRouting(r)})
	}
	{
		g, r := topology.FatTree(topology.FatTreeSpec{K: 4, LinkCapacity: topology.Gbps(1)})
		topos = append(topos, struct {
			name string
			g    *topology.Graph
			r    topology.Routing
		}{"fattree", g, topology.NewCachedRouting(r)})
	}

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		topo := topos[trial%len(topos)]
		specs := workload.Generate(topo.g, workload.Spec{
			Tasks:            3 + rng.Intn(8),
			MeanFlowsPerTask: 1 + rng.Intn(8),
			MeanDeadline:     simtime.Time(5+rng.Intn(40)) * simtime.Millisecond,
			MeanFlowSize:     int64(20+rng.Intn(200)) * 1024,
			ArrivalRate:      float64(50 + rng.Intn(400)),
			BackgroundTasks:  rng.Intn(3),
			Seed:             rng.Int63(),
		})
		for _, name := range AllSchedulers() {
			eng := sim.New(topo.g, topo.r, mustScheduler(t, name), specs, sim.Config{
				Validate: true, MaxTime: simtime.Time(1e11),
			})
			res, err := eng.Run()
			if err != nil {
				t.Fatalf("trial %d %s on %s: %v", trial, name, topo.name, err)
			}
			checkInvariants(t, trial, name, res)
		}
	}
}

func checkInvariants(t *testing.T, trial int, name string, res *sim.Result) {
	t.Helper()
	for _, f := range res.Flows {
		switch f.State {
		case sim.FlowDone:
			if f.BytesSent < float64(f.Size)-1e-6 || f.BytesSent > float64(f.Size)+1e-6 {
				t.Fatalf("trial %d %s: done flow %d sent %g of %d",
					trial, name, f.ID, f.BytesSent, f.Size)
			}
			if f.OnTime() && f.Finish > f.Deadline {
				t.Fatalf("trial %d %s: flow %d on time after deadline", trial, name, f.ID)
			}
		case sim.FlowKilled:
			if f.BytesSent > float64(f.Size)+1e-6 {
				t.Fatalf("trial %d %s: killed flow %d oversent %g",
					trial, name, f.ID, f.BytesSent)
			}
			if f.OnTime() {
				t.Fatalf("trial %d %s: killed flow %d counted on time", trial, name, f.ID)
			}
		case sim.FlowActive, sim.FlowPending:
			t.Fatalf("trial %d %s: flow %d left %v after run end",
				trial, name, f.ID, f.State)
		}
	}
	for _, task := range res.Tasks {
		if task.Rejected && task.Completed(res.Flows) {
			t.Fatalf("trial %d %s: task %d both rejected and completed",
				trial, name, task.ID)
		}
	}
	sum := metrics.Summarize(res)
	for label, v := range map[string]float64{
		"task ratio":  sum.TaskCompletionRatio(),
		"flow ratio":  sum.FlowCompletionRatio(),
		"app tput":    sum.ApplicationThroughput(),
		"flow bytes":  sum.FlowByteThroughput(),
		"waste ratio": sum.WastedBandwidthRatio(),
	} {
		if v < 0 || v > 1+1e-9 {
			t.Fatalf("trial %d %s: %s out of range: %g", trial, name, label, v)
		}
	}
	if sum.UsefulBytes+sum.WastedBytes > float64(sum.TotalBytes)+1 {
		t.Fatalf("trial %d %s: useful %g + wasted %g exceeds total %d",
			trial, name, sum.UsefulBytes, sum.WastedBytes, sum.TotalBytes)
	}
	// Task-size throughput never exceeds flow-byte throughput (a
	// completed task's bytes are a subset of the on-time flow bytes).
	if sum.ApplicationThroughput() > sum.FlowByteThroughput()+1e-9 {
		t.Fatalf("trial %d %s: task-size tput %g > flow-byte tput %g",
			trial, name, sum.ApplicationThroughput(), sum.FlowByteThroughput())
	}
}
