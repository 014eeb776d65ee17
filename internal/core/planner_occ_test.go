package core

// Tests of the planner against its own occupancy: what seeds it is
// respected, what a pass leaves behind is exactly that pass, and the
// bounded candidate search picks what an exhaustive one would.

import (
	"math/rand"
	"reflect"
	"testing"

	"taps/internal/simtime"
	"taps/internal/topology"
)

func testFatTree(k int) (*topology.Graph, topology.Routing) {
	g, r := topology.FatTree(topology.FatTreeSpec{K: k, LinkCapacity: 1e6}) // 1 byte = 1 µs
	return g, topology.NewCachedRouting(r)
}

// TestPlanRespectsSeedOccupancy: a calendar seeded by an earlier pass is
// never double-booked.
func TestPlanRespectsSeedOccupancy(t *testing.T) {
	g, r := testFatTree(4)
	hosts := g.Hosts()
	p := &Planner{Graph: g, Routing: r, MaxPaths: 1}
	// Occupy [0, 5ms) on the flow's only candidate path.
	req := FlowReq{Key: 1, Src: hosts[0], Dst: hosts[1], Bytes: 1000,
		Deadline: 50 * simtime.Millisecond}
	path := r.Paths(req.Src, req.Dst, 1, 1)[0]
	busy := simtime.NewIntervalSet(simtime.Interval{Start: 0, End: 5 * simtime.Millisecond})
	p.occ.reset(g.NumLinks())
	p.occ.claim(path, &busy, 5*simtime.Millisecond)
	e := p.planAll(0, []FlowReq{req})[0]
	if e.Path == nil {
		t.Fatal("no plan")
	}
	for _, iv := range e.Slices.Intervals() {
		if iv.Start < 5*simtime.Millisecond {
			t.Fatalf("slice %v inside seeded occupancy", iv)
		}
	}
	if e.Finish != 6*simtime.Millisecond {
		t.Fatalf("finish = %d, want 6 ms", e.Finish)
	}
	want := simtime.NewIntervalSet(simtime.Interval{Start: 0, End: 6 * simtime.Millisecond})
	for _, l := range path {
		if got := p.occ.get(l); got.String() != want.String() {
			t.Fatalf("link %d holds %v after the pass, want %v", l, got, want)
		}
	}
}

// occupancyOf recomputes per-link occupancy from a pass's entries.
func occupancyOf(entries []PlanEntry) map[int32][]simtime.Interval {
	sets := make(map[topology.LinkID]*simtime.IntervalSet)
	for i := range entries {
		for _, l := range entries[i].Path {
			if sets[l] == nil {
				sets[l] = new(simtime.IntervalSet)
			}
			sets[l].UnionInPlace(&entries[i].Slices)
		}
	}
	occ := make(map[int32][]simtime.Interval)
	for l, set := range sets {
		occ[int32(l)] = snapIntervals(*set)
	}
	return occ
}

// TestPlanAllLeavesOnlyItsOwnOccupancy: the occupancy array is emptied by
// the list of links the previous pass wrote, not by a scan. A first pass on
// a fresh planner — one that has never sized its array — writes the links
// of the last pod; a second pass stays inside the first pod and must find
// none of the first's occupancy standing.
func TestPlanAllLeavesOnlyItsOwnOccupancy(t *testing.T) {
	g, r := testFatTree(4)
	hosts := g.Hosts()
	p := &Planner{Graph: g, Routing: r, MaxPaths: 4}
	pod := func(hosts []topology.NodeID) []FlowReq {
		var reqs []FlowReq
		for i, src := range hosts {
			reqs = append(reqs, FlowReq{Key: uint64(src), Src: src, Dst: hosts[(i+1)%len(hosts)],
				Bytes: 2000, Deadline: 20 * simtime.Millisecond})
		}
		return reqs
	}
	n := len(hosts)
	for pass, reqs := range [][]FlowReq{pod(hosts[n-4:]), pod(hosts[:4])} {
		entries := p.PlanAll(0, reqs)
		if got, want := snapOccupancy(p), occupancyOf(entries); len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: the planner holds %v, the pass granted %v", pass, got, want)
		}
	}
}

// TestEvalCandidatesMatchesExhaustiveSearch: over random occupancy, the
// bounded search — each candidate swept only up to the best finish so far —
// picks the same path, finish and slices as evaluating every candidate in
// full, instant by instant, and counts every candidate as tried.
func TestEvalCandidatesMatchesExhaustiveSearch(t *testing.T) {
	for _, k := range []int{4, 8} {
		g, r := testFatTree(k)
		hosts := g.Hosts()
		p := &Planner{Graph: g, Routing: r, MaxPaths: 16}
		rng := rand.New(rand.NewSource(int64(k)))
		unroutable := 0
		for round := 0; round < 300; round++ {
			p.occ.reset(g.NumLinks())
			for n := rng.Intn(3 * g.NumLinks()); n > 0; n-- {
				start := simtime.Time(rng.Intn(600))
				busy := simtime.NewIntervalSet(simtime.Interval{Start: start, End: start + simtime.Time(1+rng.Intn(80))})
				p.occ.claim(topology.Path{topology.LinkID(rng.Intn(g.NumLinks()))}, &busy, 0)
			}
			src, dst := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
			if src == dst {
				continue
			}
			now := simtime.Time(rng.Intn(300))
			req := FlowReq{Key: uint64(round), Src: src, Dst: dst, Bytes: float64(1 + rng.Intn(150))}
			window := simtime.Interval{Start: now, End: now + simtime.Time(rng.Intn(500))}
			paths := r.Paths(src, dst, p.MaxPaths, req.Key)

			wantIdx, wantFinish, wantSlices := -1, simtime.Infinity, simtime.IntervalSet{}
			for i, path := range paths {
				var taken simtime.IntervalSet
				left := simtime.Time(req.Bytes)
				for at := now; left > 0 && at < window.End; at++ {
					idle := true
					for _, l := range path {
						idle = idle && !p.occ.get(l).Contains(at)
					}
					if idle {
						taken.Add(simtime.Interval{Start: at, End: at + 1})
						left--
					}
				}
				if left > 0 {
					continue
				}
				if finish := taken.Intervals()[taken.Count()-1].End; finish < wantFinish {
					wantIdx, wantFinish, wantSlices = i, finish, taken
				}
			}

			tried := p.PathsTried()
			sc := &p.scratch
			p.evalCandidates(now, req, window, paths, sc)
			if got := p.PathsTried() - tried; got != int64(len(paths)) {
				t.Fatalf("k=%d round %d: %d of %d candidates counted as tried", k, round, got, len(paths))
			}
			if sc.bestIdx != wantIdx {
				t.Fatalf("k=%d round %d: picked candidate %d, exhaustive search %d", k, round, sc.bestIdx, wantIdx)
			}
			if wantIdx < 0 {
				unroutable++
				continue
			}
			if sc.bestFinish != wantFinish || sc.best.String() != wantSlices.String() {
				t.Fatalf("k=%d round %d: candidate %d got %v finish %d, exhaustive search %v finish %d",
					k, round, wantIdx, sc.best, sc.bestFinish, wantSlices, wantFinish)
			}
		}
		if unroutable == 0 || unroutable > 150 {
			t.Fatalf("k=%d: %d of 300 rounds found no candidate inside the window; want some, not most", k, unroutable)
		}
	}
}

// reweighted copies g, giving every link between two switches a capacity
// drawn from caps; host links keep theirs. Node and link IDs are g's, so
// g's routing routes over the copy.
func reweighted(g *topology.Graph, rng *rand.Rand, caps []float64) *topology.Graph {
	c := topology.NewGraph()
	for n := 0; n < g.NumNodes(); n++ {
		nd := g.Node(topology.NodeID(n))
		c.AddNode(nd.Kind, nd.Name, nd.Level, nd.Pod)
	}
	for l := 0; l < g.NumLinks(); l++ {
		lk := g.Link(topology.LinkID(l))
		capacity := lk.Capacity
		if g.Node(lk.Src).Kind != topology.Host && g.Node(lk.Dst).Kind != topology.Host {
			capacity = caps[rng.Intn(len(caps))]
		}
		c.AddLink(lk.Src, lk.Dst, capacity)
	}
	return c
}

// TestPrunedSearchMatchesFullSearch: the candidate search that dismisses
// every candidate after the best so far reaches the shared-hop bound picks
// the same index, finish and slices as sweeping every candidate to the
// window's end. The occupancy is drawn on the flow's own candidate links,
// dense enough that the bound is often met before the last candidate, on a
// fat-tree whose switch links run at mixed capacities (so candidates differ
// in units and the shared hops are the fastest), on BCube (whose
// candidates share no hop, so nothing is dismissed) and on uniform k=4 and
// k=8 fat-trees.
func TestPrunedSearchMatchesFullSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	ft4, ft4R := topology.FatTree(topology.FatTreeSpec{K: 4, LinkCapacity: 1e6}) // 1 byte = 1 µs
	ft8, ft8R := topology.FatTree(topology.FatTreeSpec{K: 8, LinkCapacity: 1e6})
	bc, bcR := topology.BCube(topology.BCubeSpec{N: 4, K: 2, LinkCapacity: 1e6})
	for _, c := range []struct {
		name      string
		g         *topology.Graph
		r         topology.Routing
		wantBound bool
	}{
		{"fattree4-mixed", reweighted(ft4, rng, []float64{1e6, 1e6, 1e6, 1e6, 5e5, 2.5e5}), ft4R, true},
		{"fattree8-mixed", reweighted(ft8, rng, []float64{1e6, 1e6, 1e6, 5e5}), ft8R, true},
		{"bcube", bc, bcR, false},
		{"fattree4", ft4, ft4R, true},
		{"fattree8", ft8, ft8R, true},
	} {
		p := &Planner{Graph: c.g, Routing: topology.NewCachedRouting(c.r), MaxPaths: 16}
		hosts := c.g.Hosts()
		met, fits := 0, 0
		for round := 0; round < 1500; round++ {
			src, dst := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
			if src == dst {
				continue
			}
			req := FlowReq{Key: rng.Uint64(), Src: src, Dst: dst, Bytes: float64(1 + rng.Intn(60))}
			paths := p.Routing.Paths(src, dst, p.MaxPaths, req.Key)
			p.occ.reset(c.g.NumLinks())
			for _, path := range paths {
				for j, l := range path {
					n := rng.Intn(2) // a switch link: busy less often than a host's
					if j == 0 || j == len(path)-1 {
						n = rng.Intn(3)
					}
					for ; n > 0; n-- {
						start := simtime.Time(rng.Intn(300))
						busy := simtime.NewIntervalSet(simtime.Interval{Start: start, End: start + simtime.Time(1+rng.Intn(40))})
						p.occ.claim(topology.Path{l}, &busy, 0)
					}
				}
			}
			now := simtime.Time(rng.Intn(100))
			window := simtime.Interval{Start: now, End: now + simtime.Time(rng.Intn(600))}

			// Every candidate swept to the window's end.
			sc := &p.scratch
			wantIdx, wantFinish, wantSlices := -1, simtime.Infinity, ""
			for i, path := range paths {
				if finish, ok := p.evalPath(now, req, window.End+1, path, sc); ok && finish < wantFinish {
					wantIdx, wantFinish, wantSlices = i, finish, sc.taken.String()
				}
			}

			p.evalCandidates(now, req, window, paths, sc)
			if sc.bestIdx != wantIdx {
				t.Fatalf("%s round %d: pruned search picked candidate %d, full search %d", c.name, round, sc.bestIdx, wantIdx)
			}
			if wantIdx >= 0 && (sc.bestFinish != wantFinish || sc.best.String() != wantSlices) {
				t.Fatalf("%s round %d: candidate %d got %v finish %d, full search %v finish %d",
					c.name, round, wantIdx, sc.best, sc.bestFinish, wantSlices, wantFinish)
			}

			bound := p.sharedBound(now, req, window.End+1, paths, sc)
			if !c.wantBound && len(paths) > 1 && bound != now {
				t.Fatalf("%s round %d: candidates share no hop, yet the bound is %d (now %d)", c.name, round, bound, now)
			}
			if wantIdx >= 0 {
				fits++
				if bound > wantFinish {
					t.Fatalf("%s round %d: bound %d above the winner's finish %d", c.name, round, bound, wantFinish)
				}
				if bound == wantFinish && wantIdx < len(paths)-1 {
					met++
				}
			}
		}
		t.Logf("%s: %d rounds fit, %d met the bound before the last candidate", c.name, fits, met)
		if fits < 500 || c.wantBound && met < 100 {
			t.Fatalf("%s: %d rounds fit, %d met the bound before the last candidate; the comparison lost its teeth", c.name, fits, met)
		}
	}
}
