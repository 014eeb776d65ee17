package core_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"taps/internal/core"
	"taps/internal/simtime"
	"taps/internal/topology"
)

func fatTree4() (*topology.Graph, topology.Routing) {
	g, r := topology.FatTree(topology.FatTreeSpec{K: 4, LinkCapacity: 1e6})
	return g, topology.NewCachedRouting(r)
}

func randReqs(rng *rand.Rand, hosts []topology.NodeID, n int) []core.FlowReq {
	reqs := make([]core.FlowReq, n)
	for i := range reqs {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		for dst == src {
			dst = hosts[rng.Intn(len(hosts))]
		}
		reqs[i] = core.FlowReq{
			Key:      uint64(i),
			Src:      src,
			Dst:      dst,
			Bytes:    float64(1 + rng.Intn(5000)),
			Deadline: simtime.Time(1+rng.Intn(50)) * simtime.Millisecond,
		}
	}
	return reqs
}

// TestPropPlanSlicesDisjointPerLink: the central planner invariant — no
// two flows' slices overlap on any shared link, ever.
func TestPropPlanSlicesDisjointPerLink(t *testing.T) {
	g, r := fatTree4()
	hosts := g.Hosts()
	p := &core.Planner{Graph: g, Routing: r, MaxPaths: 4}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reqs := randReqs(rng, hosts, 1+rng.Intn(25))
		now := simtime.Time(rng.Intn(1000))
		entries := p.PlanAll(now, reqs)
		perLink := make(map[topology.LinkID]simtime.IntervalSet)
		for _, e := range entries {
			if e.Path == nil {
				continue
			}
			for _, l := range e.Path {
				set := perLink[l]
				if !simtime.Intersect(set, e.Slices).Empty() {
					return false
				}
				set.UnionInPlace(&e.Slices)
				perLink[l] = set
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestPropPlanSlicesCoverRequest: every planned flow gets exactly the time
// its bytes need at the path's line rate, starting at or after now.
func TestPropPlanSlicesCoverRequest(t *testing.T) {
	g, r := fatTree4()
	hosts := g.Hosts()
	p := &core.Planner{Graph: g, Routing: r, MaxPaths: 4}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		reqs := randReqs(rng, hosts, 1+rng.Intn(20))
		now := simtime.Time(rng.Intn(500))
		entries := p.PlanAll(now, reqs)
		for i, e := range entries {
			if e.Path == nil {
				return false // a fat-tree always offers a path
			}
			capac := g.MinCapacity(e.Path)
			needUs := reqs[i].Bytes * 1e6 / capac
			total := e.Slices.Total()
			// Ceil rounding grants at most one extra microsecond.
			if float64(total) < needUs-1e-9 || float64(total) > needUs+1 {
				return false
			}
			for _, iv := range e.Slices.Intervals() {
				if iv.Start < now {
					return false
				}
			}
			if ivs := e.Slices.Intervals(); len(ivs) > 0 && ivs[len(ivs)-1].End != e.Finish {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestPlanSlicesSurviveNextPass guards the planner's scratch-arena
// contract: the slices a pass returns are the caller's, so a later pass on
// the same Planner (same arena) must not rewrite them.
func TestPlanSlicesSurviveNextPass(t *testing.T) {
	g, r := fatTree4()
	hosts := g.Hosts()
	p := &core.Planner{Graph: g, Routing: r, MaxPaths: 4}
	rng := rand.New(rand.NewSource(7))
	first := p.PlanAll(0, randReqs(rng, hosts, 20))
	want := make([][]simtime.Interval, len(first))
	for i, e := range first {
		want[i] = slices.Clone(e.Slices.Intervals())
	}
	p.PlanAll(100, randReqs(rng, hosts, 20))
	for i, e := range first {
		if !slices.Equal(e.Slices.Intervals(), want[i]) {
			t.Fatalf("entry %d slices changed by the next pass: %v, want %v", i, e.Slices.Intervals(), want[i])
		}
	}
}

func TestPlannerZeroByteAndSelfFlows(t *testing.T) {
	g, r := fatTree4()
	hosts := g.Hosts()
	p := &core.Planner{Graph: g, Routing: r, MaxPaths: 4}
	reqs := []core.FlowReq{
		{Key: 1, Src: hosts[0], Dst: hosts[0], Bytes: 100, Deadline: 1000},
		{Key: 2, Src: hosts[0], Dst: hosts[1], Bytes: 0, Deadline: 1000},
	}
	entries := p.PlanAll(7, reqs)
	for i, e := range entries {
		if e.Finish != 7 {
			t.Fatalf("entry %d finish = %d, want now", i, e.Finish)
		}
		if !e.Slices.Empty() {
			t.Fatalf("entry %d has slices", i)
		}
	}
}
