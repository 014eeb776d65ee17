package core

import (
	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// FlowReq is one flow the planner must place: the remaining bytes of a new
// or in-flight flow, its endpoints, and its absolute deadline. Key seeds
// the candidate-path rotation so concurrent flows between the same pair
// explore different paths.
type FlowReq struct {
	Key      uint64
	Src, Dst topology.NodeID
	Bytes    float64
	Deadline simtime.Time
}

// PlanEntry is the planner's decision for one flow: the chosen path, the
// pre-allocated transmission slices on it, and the resulting finish time.
// Candidates and PathIndex describe the Alg. 2 search that produced it
// (for span tracing); PathIndex is -1 when no candidate fit.
type PlanEntry struct {
	Path       topology.Path
	Slices     simtime.IntervalSet
	Finish     simtime.Time
	Candidates int
	PathIndex  int
}

// Planner implements Alg. 2 (PathCalculation) and Alg. 3 (TimeAllocation)
// over a topology, independent of any simulation engine: the flow-level
// simulator and the SDN testbed controller both drive it.
//
// A Planner owns the per-link occupancy its passes build and the scratch
// buffers they reuse, so it must be used through a single pointer and never
// copied. Calls are not safe for concurrent use.
type Planner struct {
	Graph    *topology.Graph
	Routing  topology.Routing
	MaxPaths int

	// pathsTried counts candidate paths examined, or dismissed by the
	// shared-hop bound, across all PlanAll calls; observability
	// instrumentation reads deltas around a pass.
	pathsTried int64

	occ     occupancy
	scratch evalScratch
}

// evalScratch is the planner's buffer arena: every candidate-path
// evaluation is one simtime.FirstFit sweep over sets into taken, so the
// steady-state loop performs no allocations. best double-buffers with
// taken — when a candidate becomes the best so far the two are swapped,
// which keeps the winning slices without copying. Both are rewritten by the
// next evaluation, so planOne publishes a Clone of best;
// TestPlanSlicesSurviveNextPass guards that.
type evalScratch struct {
	sets   []simtime.IntervalSet // per-link occupancy views of one path
	shared topology.Path         // hops every candidate of the flow crosses
	taken  simtime.IntervalSet   // first-E-units allocation of the last sweep
	best   simtime.IntervalSet   // slices of the best candidate so far

	bestIdx    int // candidate index of best, -1 if none fit
	bestFinish simtime.Time
}

// evalCandidates sweeps the candidate paths in order, tracking the
// (finish, index)-lowest winner in sc. A candidate has to finish inside the
// window and strictly before the best so far, and its sweep stops as soon
// as it cannot. Before the first sweep, one more sweep over the links that
// every candidate shares (on a fat-tree, the first and last hop) gives a
// lower bound on any candidate's finish: a candidate's idle time is a
// subset of theirs and its units are no fewer than theirs. Once the bound
// is not before the finish to beat — the best so far, or the window's end
// — no later candidate can win, because ties go to the lowest index, and
// the rest are dismissed unswept. The winner is the one a sweep of every
// candidate would pick, and every non-empty candidate, swept or dismissed,
// counts as tried.
func (p *Planner) evalCandidates(now simtime.Time, r FlowReq, window simtime.Interval, paths []topology.Path, sc *evalScratch) {
	sc.bestIdx, sc.bestFinish = -1, simtime.Infinity
	before := min(window.End+1, simtime.Infinity)
	bound := p.sharedBound(now, r, before, paths, sc)
	for i := range paths {
		if len(paths[i]) == 0 {
			continue
		}
		p.pathsTried++
		if bound >= before {
			continue
		}
		if finish, ok := p.evalPath(now, r, before, paths[i], sc); ok {
			sc.bestIdx, sc.bestFinish, before = i, finish, finish
			sc.taken, sc.best = sc.best, sc.taken
		}
	}
}

// sharedBound returns a lower bound on the finish of every candidate: the
// first-fit finish, at the shared links' capacity, over the busy sets of
// the first and the last hop, each when every non-empty candidate has it.
// Checking only those two may miss a shared link in the middle, which only
// loosens the bound. The sweep is worth it only for two candidates or more
// that share a hop; otherwise sharedBound returns now, which dismisses
// nothing. A bound at or past before means no candidate fits.
func (p *Planner) sharedBound(now simtime.Time, r FlowReq, before simtime.Time, paths []topology.Path, sc *evalScratch) simtime.Time {
	var ref topology.Path
	n, firstShared, lastShared := 0, true, true
	for _, path := range paths {
		if len(path) == 0 {
			continue
		}
		if n++; n == 1 {
			ref = path
			continue
		}
		firstShared = firstShared && path[0] == ref[0]
		lastShared = lastShared && path[len(path)-1] == ref[len(ref)-1]
	}
	if n < 2 || !firstShared && !lastShared {
		return now
	}
	sc.shared = sc.shared[:0]
	if firstShared {
		sc.shared = append(sc.shared, ref[0])
	}
	if lastShared && (len(ref) > 1 || !firstShared) {
		sc.shared = append(sc.shared, ref[len(ref)-1])
	}
	e := sim.DurationFor(r.Bytes, p.Graph.MinCapacity(sc.shared))
	bound, _ := simtime.FirstFit(nil, now, e, before, p.busySets(sc.shared, sc)...)
	return bound
}

// PathsTried returns the cumulative number of non-empty candidate paths
// examined, or dismissed by the shared-hop bound.
func (p *Planner) PathsTried() int64 { return p.pathsTried }

// occupancy is the planner's per-link busy calendar: the union of the
// slices the current pass has granted on each link, in one LinkID-indexed
// array whose interval storage is reused from pass to pass. A pass starts
// by emptying the links the previous one touched; between a kernel's inputs
// it is the committed plan's occupancy, because every input ends by
// committing the last pass it planned.
type occupancy struct {
	links   []simtime.IntervalSet
	touched []topology.LinkID // links written since the last reset
	end     simtime.Time      // latest instant any link is busy
}

// reset empties the calendar for a pass over a graph of n links, in time
// proportional to the links written since the last one.
func (o *occupancy) reset(n int) {
	if len(o.links) < n {
		o.links = append(o.links, make([]simtime.IntervalSet, n-len(o.links))...)
	}
	for _, l := range o.touched {
		o.links[l].Reset()
	}
	o.touched, o.end = o.touched[:0], 0
}

func (o *occupancy) get(l topology.LinkID) simtime.IntervalSet { return o.links[l] }

// claim unions a flow's slices into the occupancy of every link of its
// path.
func (o *occupancy) claim(path topology.Path, slices *simtime.IntervalSet, finish simtime.Time) {
	o.end = max(o.end, finish)
	for _, l := range path {
		if o.links[l].Empty() {
			o.touched = append(o.touched, l)
		}
		o.links[l].UnionInPlace(slices)
	}
}

// hostCapacity estimates the line rate available to a flow before a path
// is chosen: the capacity of the source host's uplink.
func (p *Planner) hostCapacity(src topology.NodeID) float64 {
	if out := p.Graph.Out(src); len(out) > 0 {
		return p.Graph.Link(out[0]).Capacity
	}
	return 0
}

// PlanAll places every request, in the given order, into the earliest idle
// time slices of its best candidate path (first-fit in priority order —
// the caller sorts by EDF+SJF per Alg. 1), starting from empty occupancy.
// It returns one entry per request, aligned by index; entries whose Finish
// exceeds the request deadline (or is simtime.Infinity for unroutable
// flows) are misses.
func (p *Planner) PlanAll(now simtime.Time, reqs []FlowReq) []PlanEntry {
	p.occ.reset(p.Graph.NumLinks())
	return p.planAll(now, reqs)
}

// planWindow computes the allocation window for one pass over reqs: beyond
// maxDeadline + serialized total work every flow finds idle slices, so
// first-fit cannot fail inside the window.
func (p *Planner) planWindow(now simtime.Time, reqs []FlowReq) simtime.Interval {
	var sumE simtime.Time
	maxDeadline := max(now, p.occ.end)
	for _, r := range reqs {
		if c := p.hostCapacity(r.Src); c > 0 {
			sumE += sim.DurationFor(r.Bytes, c)
		}
		maxDeadline = max(maxDeadline, r.Deadline)
	}
	return simtime.Interval{Start: now, End: maxDeadline + sumE + 1}
}

func (p *Planner) planAll(now simtime.Time, reqs []FlowReq) []PlanEntry {
	window := p.planWindow(now, reqs)

	entries := make([]PlanEntry, len(reqs))
	for i, r := range reqs {
		entries[i] = p.planOne(now, r, window)
	}
	return entries
}

// planOne runs Alg. 2 lines 2-14 for a single flow and claims its slices
// in the occupancy.
func (p *Planner) planOne(now simtime.Time, r FlowReq, window simtime.Interval) PlanEntry {
	best := PlanEntry{Finish: simtime.Infinity, PathIndex: -1}
	if r.Src == r.Dst || r.Bytes <= 0 {
		best.Finish = now
		return best
	}
	paths := p.Routing.Paths(r.Src, r.Dst, p.MaxPaths, r.Key)
	best.Candidates = len(paths)
	sc := &p.scratch
	p.evalCandidates(now, r, window, paths, sc)
	if sc.bestIdx < 0 {
		return best
	}
	best.Path = paths[sc.bestIdx]
	best.PathIndex = sc.bestIdx
	best.Finish = sc.bestFinish
	// The clone is the single allocation the planning of one flow
	// performs; the copy is retained in the returned plan.
	best.Slices = sc.best.Clone()
	p.occ.claim(best.Path, &best.Slices, best.Finish)
	return best
}

// evalPath runs Alg. 3 for one candidate path: one bounded first-fit sweep
// over the occupancies of its links, at the path's bottleneck capacity,
// which is only worked out for a candidate that is swept. It succeeds when
// the flow finishes before `before`; the taken slices are then in sc.taken.
// Nothing is allocated once sc is warm.
func (p *Planner) evalPath(now simtime.Time, r FlowReq, before simtime.Time, path topology.Path, sc *evalScratch) (simtime.Time, bool) {
	e := sim.DurationFor(r.Bytes, p.Graph.MinCapacity(path))
	return simtime.FirstFit(&sc.taken, now, e, before, p.busySets(path, sc)...)
}

// busySets gathers the non-empty occupancies of links into sc.sets.
func (p *Planner) busySets(links []topology.LinkID, sc *evalScratch) []simtime.IntervalSet {
	sc.sets = sc.sets[:0]
	for _, l := range links {
		if set := p.occ.get(l); !set.Empty() {
			sc.sets = append(sc.sets, set)
		}
	}
	return sc.sets
}
