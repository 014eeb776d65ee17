package core_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"taps/internal/core"
	"taps/internal/obs/declog"
	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
	"taps/internal/workload"
)

// BenchmarkPlanAll measures one global re-plan (the per-arrival cost of
// the TAPS controller) at increasing in-flight flow counts on the
// single-rooted tree (single candidate path).
func BenchmarkPlanAll(b *testing.B) {
	g, r := topology.SingleRootedTree(topology.SingleRootedTreeSpec{
		Pods: 4, RacksPerPod: 4, HostsPerRack: 10, LinkCapacity: topology.Gbps(1),
	})
	cr := topology.NewCachedRouting(r)
	hosts := g.Hosts()
	for _, n := range []int{50, 200, 800} {
		b.Run(fmt.Sprintf("flows=%d", n), func(b *testing.B) {
			reqs := make([]core.FlowReq, n)
			for i := range reqs {
				reqs[i] = core.FlowReq{
					Key:      uint64(i),
					Src:      hosts[i%len(hosts)],
					Dst:      hosts[(i*7+3)%len(hosts)],
					Bytes:    200 * 1024,
					Deadline: simtime.Time(20+i%40) * simtime.Millisecond,
				}
				if reqs[i].Src == reqs[i].Dst {
					reqs[i].Dst = hosts[(i+1)%len(hosts)]
				}
			}
			p := &core.Planner{Graph: g, Routing: cr, MaxPaths: 16}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.PlanAll(0, reqs)
			}
		})
	}
}

// BenchmarkPlanAllFatTree isolates the multi-path cost: same request
// stream on a k=8 fat-tree with candidate-path caps.
func BenchmarkPlanAllFatTree(b *testing.B) {
	g, r := topology.FatTree(topology.FatTreeSpec{K: 8, LinkCapacity: topology.Gbps(1)})
	cr := topology.NewCachedRouting(r)
	hosts := g.Hosts()
	reqs := make([]core.FlowReq, 200)
	for i := range reqs {
		reqs[i] = core.FlowReq{
			Key:      uint64(i),
			Src:      hosts[i%len(hosts)],
			Dst:      hosts[(i*11+5)%len(hosts)],
			Bytes:    200 * 1024,
			Deadline: simtime.Time(20+i%40) * simtime.Millisecond,
		}
		if reqs[i].Src == reqs[i].Dst {
			reqs[i].Dst = hosts[(i+1)%len(hosts)]
		}
	}
	for _, cap := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("paths=%d", cap), func(b *testing.B) {
			p := &core.Planner{Graph: g, Routing: cr, MaxPaths: cap}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.PlanAll(0, reqs)
			}
		})
	}
}

// replanBenchReqs builds n spread flows on a k=16 fat tree (1024 hosts),
// sorted the way the kernel feeds the planner (EDF, then size, then key).
func replanBenchReqs(g *topology.Graph, n int) []core.FlowReq {
	hosts := g.Hosts()
	reqs := make([]core.FlowReq, n)
	for i := range reqs {
		reqs[i] = core.FlowReq{
			Key:      uint64(i),
			Src:      hosts[i%len(hosts)],
			Dst:      hosts[(i*7+3)%len(hosts)],
			Bytes:    200 * 1024,
			Deadline: simtime.Time(20+i%40) * simtime.Millisecond,
		}
		if reqs[i].Src == reqs[i].Dst {
			reqs[i].Dst = hosts[(i+1)%len(hosts)]
		}
	}
	sort.SliceStable(reqs, func(i, j int) bool {
		a, b := reqs[i], reqs[j]
		if a.Deadline != b.Deadline {
			return a.Deadline < b.Deadline
		}
		if a.Bytes != b.Bytes {
			return a.Bytes < b.Bytes
		}
		return a.Key < b.Key
	})
	return reqs
}

// replanBenchArrival splices one newcomer into its sorted position.
func replanBenchArrival(g *topology.Graph, reqs []core.FlowReq) []core.FlowReq {
	hosts := g.Hosts()
	nc := core.FlowReq{
		Key: uint64(1) << 40, Src: hosts[3], Dst: hosts[len(hosts)/2],
		Bytes: 300 * 1024, Deadline: 35 * simtime.Millisecond,
	}
	pos := sort.Search(len(reqs), func(i int) bool {
		a := reqs[i]
		if a.Deadline != nc.Deadline {
			return a.Deadline > nc.Deadline
		}
		if a.Bytes != nc.Bytes {
			return a.Bytes > nc.Bytes
		}
		return a.Key > nc.Key
	})
	out := make([]core.FlowReq, 0, len(reqs)+1)
	out = append(append(append(out, reqs[:pos]...), nc), reqs[pos:]...)
	return out
}

// BenchmarkPlanFullReplan is what one arrival costs at scale: one full
// first-fit pass over n in-flight flows plus the newcomer. 100k is omitted
// — a single pass there runs ~0.3s, too slow for the CI bench-smoke's 1x
// pass to say anything useful (the trend is already linear from 1k to 10k).
func BenchmarkPlanFullReplan(b *testing.B) {
	g, r := topology.FatTree(topology.FatTreeSpec{K: 16, LinkCapacity: topology.Gbps(1)})
	cr := topology.NewCachedRouting(r)
	for _, size := range []struct {
		name string
		n    int
	}{{"1k", 1_000}, {"10k", 10_000}} {
		b.Run("flows="+size.name, func(b *testing.B) {
			p := &core.Planner{Graph: g, Routing: cr, MaxPaths: 4}
			withNew := replanBenchArrival(g, replanBenchReqs(g, size.n))
			p.PlanAll(0, withNew) // warm the routing cache and arenas
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.PlanAll(0, withNew)
			}
		})
	}
}

// churnPlane is a data plane on a frozen clock, where a discarded task
// needs no stopping.
type churnPlane struct{}

func (churnPlane) Discard(simtime.Time, int64, int64) {}

// BenchmarkPlanChurn is the benchmark's ctl_liveflows workload at the
// planner layer: a kernel on a k=16 fat-tree holding 128 tasks of 12–20
// flows (about 2 000 in flight, 16 candidate paths each) on a frozen
// clock; every iteration retires the oldest task and admits a new one
// whose deadline lands in the middle of the plan order.
func BenchmarkPlanChurn(b *testing.B) {
	g, r := topology.FatTree(topology.FatTreeSpec{K: 16, LinkCapacity: topology.Gbps(1)})
	cr := topology.NewCachedRouting(r)
	hosts := g.Hosts()
	const live = 128
	k := core.NewKernel(g, cr, core.DefaultConfig(), churnPlane{})
	rng := rand.New(rand.NewSource(1))
	var key uint64
	arrive := func(task int) {
		specs := make([]core.FlowSpec, 12+rng.Intn(9))
		for i := range specs {
			src, dst := rng.Intn(len(hosts)), rng.Intn(len(hosts)-1)
			if dst >= src {
				dst++
			}
			key++
			specs[i] = core.FlowSpec{Key: key, Src: hosts[src], Dst: hosts[dst], Size: 100e3 + rng.Int63n(50e3+1)}
		}
		deadline := simtime.Second + rng.Int63n(2*simtime.Second+1) + 5*simtime.Millisecond*simtime.Time(task)
		if d, _ := k.TaskArrived(0, int64(task), deadline, specs); d != core.Accept {
			b.Fatalf("task %d: %v", task, d)
		}
	}
	for task := 0; task < live; task++ {
		arrive(task)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for task := live; task < live+b.N; task++ {
		for _, f := range k.Flows(int64(task - live)) {
			k.FlowFinished(0, f.Key, 0)
		}
		arrive(task)
	}
}

// BenchmarkTAPSFullRun measures the whole pipeline: workload generation
// excluded, simulation + scheduling included.
func BenchmarkTAPSFullRun(b *testing.B) {
	g, r := topology.SingleRootedTree(topology.SingleRootedTreeSpec{
		Pods: 3, RacksPerPod: 2, HostsPerRack: 5, LinkCapacity: topology.Gbps(1),
	})
	cr := topology.NewCachedRouting(r)
	specs := workload.Generate(g, workload.Spec{Tasks: 12, MeanFlowsPerTask: 20, Seed: 1})
	b.Run("replan-always", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			eng := sim.New(g, cr, core.New(core.DefaultConfig()), specs, sim.Config{})
			if _, err := eng.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTAPSFullRunSpans is the span-tracing cost pair: the identical
// simulation with no decision log (the default) and with one in memory,
// the record a span tree is replayed from. The off side must match
// BenchmarkTAPSFullRun/replan-always — span tracing is free until a log
// is attached (see
// TestPlannerAllocsUnchangedWithSpansDisabled for the hard pin).
func BenchmarkTAPSFullRunSpans(b *testing.B) {
	g, r := topology.SingleRootedTree(topology.SingleRootedTreeSpec{
		Pods: 3, RacksPerPod: 2, HostsPerRack: 5, LinkCapacity: topology.Gbps(1),
	})
	cr := topology.NewCachedRouting(r)
	specs := workload.Generate(g, workload.Spec{Tasks: 12, MeanFlowsPerTask: 20, Seed: 1})
	for _, spans := range []bool{false, true} {
		name := "spans=off"
		if spans {
			name = "spans=on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sched := core.New(core.DefaultConfig())
				cfg := sim.Config{}
				if spans {
					cfg.Sink = declog.Sink{Log: &declog.Writer{}}
				}
				eng := sim.New(g, cr, sched, specs, cfg)
				if _, err := eng.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
