// Package sched provides building blocks shared by the baseline schedulers
// of the paper's evaluation: priority comparators (EDF, SJF), exclusive
// line-rate greedy allocation (the "at most one flow per link" discipline
// of PDQ/Baraat/TAPS), and max-min fair progressive filling.
//
// The allocation passes run at every simulation event instant, so the
// building blocks come in two forms: convenience functions that allocate
// their working state per call (NewResidual + ExclusiveGreedy, MaxMinFair)
// and reusable arenas (Residual held across calls, FairAllocator) whose
// scratch is dense-indexed by the topology's link IDs and reused tick after
// tick. Both forms produce bit-identical allocations.
package sched

import (
	"slices"

	"taps/internal/sim"
	"taps/internal/topology"
)

// EDFSJFLess orders flows by earliest absolute deadline, breaking ties by
// smallest remaining bytes, then by flow ID for determinism. This is the
// EDF+SJF discipline of §IV-A.
func EDFSJFLess(a, b *sim.Flow) bool {
	if a.Deadline != b.Deadline {
		return a.Deadline < b.Deadline
	}
	if a.Remaining() != b.Remaining() {
		return a.Remaining() < b.Remaining()
	}
	return a.ID < b.ID
}

// SJFLess orders flows by smallest remaining bytes, then ID.
func SJFLess(a, b *sim.Flow) bool {
	if a.Remaining() != b.Remaining() {
		return a.Remaining() < b.Remaining()
	}
	return a.ID < b.ID
}

// EDFLess orders flows by earliest deadline, then ID.
func EDFLess(a, b *sim.Flow) bool {
	if a.Deadline != b.Deadline {
		return a.Deadline < b.Deadline
	}
	return a.ID < b.ID
}

// SortFlows sorts flows in place by the given comparator (stable).
func SortFlows(flows []*sim.Flow, less func(a, b *sim.Flow) bool) {
	slices.SortStableFunc(flows, func(a, b *sim.Flow) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
}

// DeadlineRate returns the rate (bytes/second) that delivers `remaining`
// bytes strictly within `ttd` microseconds. It targets ttd-1 µs so that the
// engine's ceil-to-microsecond completion rounding cannot push the finish
// past the deadline.
func DeadlineRate(remaining float64, ttd int64) float64 {
	if ttd > 1 {
		ttd--
	}
	if ttd <= 0 {
		return 0
	}
	return remaining / (float64(ttd) / 1e6)
}

// Residual tracks the uncommitted capacity of every link during an
// allocation pass. Usage is dense-indexed by LinkID and reset in time
// proportional to the links actually touched, so one Residual can be held
// by a scheduler and reused every tick (call Reset between passes). The
// zero value is unusable; use NewResidual.
type Residual struct {
	g       *topology.Graph
	used    []float64
	touched []topology.LinkID
}

// NewResidual returns a tracker with all links fully free.
func NewResidual(g *topology.Graph) *Residual {
	return &Residual{g: g, used: make([]float64, g.NumLinks())}
}

// Reset frees all committed capacity, readying the tracker for a new pass.
func (r *Residual) Reset() {
	for _, l := range r.touched {
		r.used[l] = 0
	}
	r.touched = r.touched[:0]
}

// Along returns the smallest residual capacity along the path
// (+Inf-like large value for an empty path is not needed: callers skip
// src==dst flows).
func (r *Residual) Along(p topology.Path) float64 {
	if len(p) == 0 {
		return 0
	}
	m := r.g.Link(p[0]).Capacity - r.used[p[0]]
	for _, l := range p[1:] {
		if c := r.g.Link(l).Capacity - r.used[l]; c < m {
			m = c
		}
	}
	if m < 0 {
		return 0
	}
	return m
}

// Free reports whether every link of the path is completely unused.
func (r *Residual) Free(p topology.Path) bool {
	for _, l := range p {
		if r.used[l] > 0 {
			return false
		}
	}
	return len(p) > 0
}

// Commit reserves rate on every link of the path.
func (r *Residual) Commit(p topology.Path, rate float64) {
	if rate <= 0 {
		return
	}
	for _, l := range p {
		if r.used[l] == 0 {
			r.touched = append(r.touched, l)
		}
		r.used[l] += rate
	}
}

// ExclusiveGreedy walks flows in the given order and grants each flow the
// full capacity of its path iff every link of the path is still untouched;
// otherwise the flow is paused (rate 0). This realizes the preemptive
// "one flow per link at line rate" discipline shared by PDQ, Baraat and
// TAPS (§IV-A): a flow transmits only when it is the most critical flow on
// every link of its path.
func ExclusiveGreedy(g *topology.Graph, ordered []*sim.Flow) sim.RateMap {
	return ExclusiveGreedyInto(NewResidual(g), ordered, make(sim.RateMap, len(ordered)))
}

// ExclusiveGreedyInto is ExclusiveGreedy against caller-owned state: res is
// reset and reused, and the grants are written into rates (allocated when
// nil). Schedulers that allocate every tick keep a Residual and a RateMap
// across calls and pay nothing but the map clear.
func ExclusiveGreedyInto(res *Residual, ordered []*sim.Flow, rates sim.RateMap) sim.RateMap {
	res.Reset()
	if rates == nil {
		rates = make(sim.RateMap, len(ordered))
	}
	g := res.g
	for _, f := range ordered {
		if len(f.Path) == 0 {
			continue
		}
		if res.Free(f.Path) {
			rate := g.MinCapacity(f.Path)
			res.Commit(f.Path, rate)
			rates[f.ID] = rate
		}
	}
	return rates
}

// FairAllocator is the reusable arena for progressive filling: per-link
// remaining capacity and flow lists are dense slices indexed by LinkID,
// grown once to the topology size and reset per pass in time proportional
// to the links actually crossed. One allocator serves one scheduler; calls
// are not safe for concurrent use.
type FairAllocator struct {
	remainingCap []float64
	flowsOn      [][]int32 // per link: indices into the flows argument
	links        []topology.LinkID
	frozen       []bool
}

// MaxMinFair computes the max-min fair allocation (progressive filling) for
// the flows over their paths: repeatedly find the most loaded bottleneck
// link, give its flows an equal share, freeze them, and continue.
func MaxMinFair(g *topology.Graph, flows []*sim.Flow) sim.RateMap {
	var a FairAllocator
	return a.MaxMinFair(g, flows, nil)
}

// MaxMinFair is the arena form: grants are written into rates (allocated
// when nil) and the scratch is reused across calls.
func (a *FairAllocator) MaxMinFair(g *topology.Graph, flows []*sim.Flow, rates sim.RateMap) sim.RateMap {
	if rates == nil {
		rates = make(sim.RateMap, len(flows))
	}
	if n := g.NumLinks(); len(a.remainingCap) < n {
		a.remainingCap = make([]float64, n)
		a.flowsOn = make([][]int32, n)
	}
	a.links = a.links[:0]
	if cap(a.frozen) < len(flows) {
		a.frozen = make([]bool, len(flows))
	}
	a.frozen = a.frozen[:len(flows)]

	unfrozen := 0
	for i, f := range flows {
		if len(f.Path) == 0 {
			a.frozen[i] = true
			continue
		}
		a.frozen[i] = false
		unfrozen++
		for _, l := range f.Path {
			if len(a.flowsOn[l]) == 0 {
				a.links = append(a.links, l)
				a.remainingCap[l] = g.Link(l).Capacity
			}
			a.flowsOn[l] = append(a.flowsOn[l], int32(i))
		}
	}
	for unfrozen > 0 {
		// Find the bottleneck link: smallest fair share per unfrozen flow,
		// ties broken by lowest link ID.
		var bottleneck topology.LinkID
		share := -1.0
		found := false
		for _, l := range a.links {
			var w float64
			for _, fi := range a.flowsOn[l] {
				if !a.frozen[fi] {
					w++
				}
			}
			if w == 0 {
				continue
			}
			s := a.remainingCap[l] / w
			if !found || s < share || (s == share && l < bottleneck) {
				bottleneck, share, found = l, s, true
			}
		}
		if !found {
			break
		}
		// Freeze every unfrozen flow on the bottleneck at its share.
		for _, fi := range a.flowsOn[bottleneck] {
			if a.frozen[fi] {
				continue
			}
			f := flows[fi]
			rates[f.ID] = share
			a.frozen[fi] = true
			unfrozen--
			for _, l := range f.Path {
				a.remainingCap[l] -= share
				if a.remainingCap[l] < 0 {
					a.remainingCap[l] = 0
				}
			}
		}
	}
	for _, l := range a.links {
		a.flowsOn[l] = a.flowsOn[l][:0]
	}
	return rates
}
