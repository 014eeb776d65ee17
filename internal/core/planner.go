package core

import (
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
// A Planner carries scratch buffers reused across calls, so it must be used
// through a single pointer and never copied. Calls are not safe for
// concurrent use.
type Planner struct {
	Graph    *topology.Graph
	Routing  topology.Routing
	MaxPaths int

	// pathsTried counts candidate paths examined across all PlanAll
	// calls; observability instrumentation reads deltas around a pass.
	pathsTried int64

	scratch evalScratch
}

// evalScratch is the planner's buffer arena: every candidate-path
// evaluation runs the merge → complement → take pipeline entirely inside
// these reused buffers, so the steady-state loop performs no allocations.
// best double-buffers with taken — when a candidate becomes the best so
// far the two are swapped, which keeps the winning slices without copying.
type evalScratch struct {
	sets     []simtime.IntervalSet // per-link occupancy views of one path
	occupied simtime.IntervalSet   // k-way union of sets (Alg. 3's Tocp)
	idle     simtime.IntervalSet   // complement of occupied within window
	taken    simtime.IntervalSet   // first-E-units allocation on idle
	best     simtime.IntervalSet   // slices of the best candidate so far

	bestIdx    int // candidate index of best, -1 if none fit
	bestFinish simtime.Time
}

// evalCandidates runs the merge → complement → take pipeline for each
// candidate path, tracking the (finish, index)-lowest winner in sc.
//
//taps:hotpath
func (p *Planner) evalCandidates(now simtime.Time, r FlowReq, window simtime.Interval, occ *occView, paths []topology.Path, sc *evalScratch) {
	sc.bestIdx, sc.bestFinish = -1, simtime.Infinity
	for i := range paths {
		if len(paths[i]) == 0 {
			continue
		}
		p.pathsTried++
		finish, ok := p.evalPath(now, r, window, occ, paths[i], sc)
		if ok && finish < sc.bestFinish {
			sc.bestIdx, sc.bestFinish = i, finish
			sc.taken, sc.best = sc.best, sc.taken
		}
	}
}

// PathsTried returns the cumulative number of candidate paths examined.
func (p *Planner) PathsTried() int64 { return p.pathsTried }

// occView resolves per-link occupancy during a planning pass. In direct
// mode (base == nil) reads and writes go straight to write, which the
// caller owns and PlanAll mutates — the historical PlanAll contract. In
// copy-on-write mode (PlanAllCOW) reads fall through to base and a link is
// cloned into write only right before its first mutation, so a failed pass
// costs no copies and leaves base untouched.
// A third mode backs the view with a dense LinkID-indexed array instead
// of a map (dense != nil): the delta planner's hot path, where the
// occupancy of every link is rebuilt each pass and per-link map hashing
// would dominate the pass (see delta.go). Dense mode implies an empty
// starting occupancy; write and base are ignored.
type occView struct {
	write map[topology.LinkID]simtime.IntervalSet
	base  map[topology.LinkID]simtime.IntervalSet
	dense []simtime.IntervalSet
}

//taps:hotpath
func (v *occView) get(l topology.LinkID) simtime.IntervalSet {
	if v.dense != nil {
		if int(l) < len(v.dense) {
			return v.dense[l]
		}
		return simtime.IntervalSet{}
	}
	if s, ok := v.write[l]; ok {
		return s
	}
	if v.base != nil {
		return v.base[l]
	}
	return simtime.IntervalSet{}
}

// add unions slices into link l's occupancy, cloning from base first in
// copy-on-write mode.
//
//taps:hotpath
func (v *occView) add(l topology.LinkID, slices *simtime.IntervalSet) {
	if v.dense != nil {
		for int(l) >= len(v.dense) {
			v.dense = append(v.dense, simtime.IntervalSet{})
		}
		v.dense[l].UnionInPlace(slices)
		return
	}
	set, ok := v.write[l]
	if !ok && v.base != nil {
		set = v.base[l].Clone()
	}
	set.UnionInPlace(slices)
	v.write[l] = set
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
// the caller sorts by EDF+SJF per Alg. 1). It returns one entry per
// request, aligned by index; entries whose Finish exceeds the request
// deadline (or is simtime.Infinity for unroutable flows) are misses.
//
// occ, if non-nil, seeds per-link occupancy (slices already promised to
// flows outside reqs); PlanAll mutates it. Pass nil to start empty.
func (p *Planner) PlanAll(now simtime.Time, reqs []FlowReq, occ map[topology.LinkID]simtime.IntervalSet) []PlanEntry {
	if occ == nil {
		occ = make(map[topology.LinkID]simtime.IntervalSet)
	}
	return p.planAll(now, reqs, &occView{write: occ})
}

// PlanAllCOW plans against base occupancy without mutating it: only links
// actually claimed by a winning path are cloned, into the returned touched
// map. On acceptance the caller merges touched back into its own state; on
// rejection it simply drops it. This is the FastAdmission path — the
// historical alternative was a deep clone of the entire occupancy map per
// arrival.
func (p *Planner) PlanAllCOW(now simtime.Time, reqs []FlowReq, base map[topology.LinkID]simtime.IntervalSet) ([]PlanEntry, map[topology.LinkID]simtime.IntervalSet) {
	v := &occView{write: make(map[topology.LinkID]simtime.IntervalSet, 16), base: base}
	entries := p.planAll(now, reqs, v)
	return entries, v.write
}

// planWindow computes the allocation window for one pass over reqs: beyond
// maxDeadline + serialized total work every flow finds idle slices, so
// TakeFirst cannot fail inside the window. The delta planner computes the
// window through this same function so incremental passes see bit-identical
// allocation horizons.
func (p *Planner) planWindow(now simtime.Time, reqs []FlowReq, occ *occView) simtime.Interval {
	var sumE simtime.Time
	maxDeadline := now
	for _, r := range reqs {
		if c := p.hostCapacity(r.Src); c > 0 {
			sumE += durationFor(r.Bytes, c)
		}
		maxDeadline = max(maxDeadline, r.Deadline)
	}
	for _, set := range occ.write {
		if ivs := set.Intervals(); len(ivs) > 0 {
			maxDeadline = max(maxDeadline, ivs[len(ivs)-1].End)
		}
	}
	for _, set := range occ.base {
		if ivs := set.Intervals(); len(ivs) > 0 {
			maxDeadline = max(maxDeadline, ivs[len(ivs)-1].End)
		}
	}
	return simtime.Interval{Start: now, End: maxDeadline + sumE + 1}
}

func (p *Planner) planAll(now simtime.Time, reqs []FlowReq, occ *occView) []PlanEntry {
	window := p.planWindow(now, reqs, occ)

	entries := make([]PlanEntry, len(reqs))
	for i, r := range reqs {
		entries[i] = p.planOne(now, r, window, occ)
	}
	return entries
}

// planOne runs Alg. 2 lines 2-14 for a single flow and commits its slices
// to occ.
//
//taps:hotpath
func (p *Planner) planOne(now simtime.Time, r FlowReq, window simtime.Interval, occ *occView) PlanEntry {
	best := PlanEntry{Finish: simtime.Infinity, PathIndex: -1}
	if r.Src == r.Dst || r.Bytes <= 0 {
		best.Finish = now
		return best
	}
	paths := p.Routing.Paths(r.Src, r.Dst, p.MaxPaths, r.Key)
	best.Candidates = len(paths)
	sc := &p.scratch
	p.evalCandidates(now, r, window, occ, paths, sc)
	if sc.bestIdx < 0 {
		return best
	}
	best.Path = paths[sc.bestIdx]
	best.PathIndex = sc.bestIdx
	best.Finish = sc.bestFinish
	// The clone is the single allocation the planning of one flow
	// performs; the copy is retained in the returned plan.
	best.Slices = sc.best.Clone()
	for _, l := range best.Path {
		occ.add(l, &best.Slices)
	}
	return best
}

// evalPath runs Alg. 3 for one candidate path entirely inside sc: Tocp =
// k-way merge of the links' occupancies, idle = complement within the
// window, allocation = first E units of idle. The taken slices are left in
// sc.taken; nothing is allocated once sc is warm.
//
//taps:hotpath
func (p *Planner) evalPath(now simtime.Time, r FlowReq, window simtime.Interval, occ *occView, path topology.Path, sc *evalScratch) (simtime.Time, bool) {
	e := durationFor(r.Bytes, p.Graph.MinCapacity(path))
	sc.sets = sc.sets[:0]
	for _, l := range path {
		if set := occ.get(l); !set.Empty() {
			sc.sets = append(sc.sets, set)
		}
	}
	simtime.MergeInto(&sc.occupied, sc.sets...)
	sc.occupied.ComplementWithinInto(window, &sc.idle)
	return sc.idle.TakeFirstInto(now, e, &sc.taken)
}

// durationFor mirrors sim.DurationFor without importing sim (core must stay
// importable from both the simulator and the SDN control plane).
func durationFor(bytes, rate float64) simtime.Time {
	if bytes <= 0 {
		return 0
	}
	if rate <= 0 {
		return simtime.Infinity
	}
	us := bytes * 1e6 / rate
	d := simtime.Time(us)
	if float64(d) < us {
		d++
	}
	if d < 1 {
		d = 1
	}
	return d
}
