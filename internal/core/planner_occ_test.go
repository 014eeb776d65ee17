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
