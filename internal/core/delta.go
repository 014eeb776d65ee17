package core

import (
	"taps/internal/simtime"
	"taps/internal/topology"
)

// DefaultMaxDirtyFrac is the fallback threshold for the delta planner:
// when more than this fraction of a pass's flows need real re-planning the
// pass aborts and the caller runs the full planner instead (the bookkeeping
// overhead would exceed the work saved).
const DefaultMaxDirtyFrac = 0.25

// DeltaStats describes one incremental pass: how many flows it covered and
// how many actually went through first-fit re-planning (the dirty set); the
// rest were re-emitted from validated records.
type DeltaStats struct {
	Flows     int
	Replanned int
}

// DeltaPlanner wraps a Planner with per-flow allocation records and the
// per-link occupancy generation index (occindex.go), so a planning pass can
// re-emit the previous pass's allocation for every flow whose inputs
// provably did not change, instead of re-running first-fit over all flows.
//
// TAPS re-plans every in-flight flow on every arrival (§IV-B), but the
// plan is a deterministic function of (ordered requests, topology): a flow's
// allocation only depends on the flows sorted before it. An arrival can
// therefore only change the allocations of flows that share candidate links
// with it or with the re-shuffled victims downstream — the same locality
// the attribution chain walk (attribution.go) exploits. The delta planner
// turns that into three reuse tiers, screened per flow in pass order:
//
//  1. Head re-clip: a transmitting flow on its best candidate path whose
//     remaining grant is the contiguous tail [now, end) of its stored
//     allocation, with the stored path still idle there, keeps path and
//     finish; only the consumed prefix is clipped. No search at all.
//
//  2. Skip: unchanged request whose candidate links saw no occupancy
//     mutation since the record was validated (touchGen check). The stored
//     allocation is re-emitted with zero planning work.
//
//  3. Verify: candidate links were touched but never freed (freeGen check):
//     inserts only make losing candidates worse, so the stored winner stays
//     the winner if its own path still yields the identical allocation —
//     one evalPath call instead of a MaxPaths-wide search.
//
// Everything else is dirty and goes through the ordinary planOne. When the
// dirty set exceeds the configured fraction, the pass aborts and reports
// ok=false: the caller must run the full Planner.PlanAll (which starts the
// planner's occupancy over — the aborted pass has half filled it) and hand
// the result to Adopt. Invalidate drops every record (link-down: routing
// changed under us), which forces the same full fallback.
//
// Correctness contract, enforced by the differential property tests: a
// successful delta pass returns PlanEntry slices and leaves the planner's
// occupancy bit-identical to Planner.PlanAll on the same inputs.
//
// A DeltaPlanner is single-goroutine like the Planner it wraps.
type DeltaPlanner struct {
	planner *Planner
	frac    float64

	idx   occIndex
	recs  map[uint64]*deltaRec
	cands map[uint64]*candCache

	// entriesScratch backs the entries slice PlanAll returns, reused
	// across passes (every element is overwritten before return). The
	// returned slice is only valid until the next PlanAll call — both
	// schedulers copy out what they keep within the same pass.
	entriesScratch []PlanEntry
	// seenGen/seenEpoch dedup links during candCache builds without a
	// per-flow map: a link is already collected iff its stamp equals the
	// current build's epoch.
	seenGen   []uint64
	seenEpoch uint64
}

// deltaRec is the remembered outcome of one flow's last first-fit
// (re-)planning, plus the occupancy-index snapshot it was validated at.
// slices aliases the emitted PlanEntry's set — nothing in the schedulers
// mutates a committed slice set in place, and the bit-identity tests
// compare contents, so no defensive clone is taken.
type deltaRec struct {
	bytes    float64
	deadline simtime.Time
	src, dst topology.NodeID

	path       topology.Path
	slices     simtime.IntervalSet
	finish     simtime.Time
	pathIndex  int
	candidates int
	linerate   float64 // MinCapacity(path), frozen at record time

	// snap is the occupancy-index clock at the last (re)validation: the
	// stored allocation was the exact planOne output for this flow's pass
	// prefix at that instant.
	snap uint64

	// cc caches the flow's candidate-link union so the hot screening loop
	// does one recs lookup per flow instead of a second map probe into
	// cands (which remains the persistent store across Adopt). Endpoints
	// are re-validated on every use.
	cc *candCache
}

func (rec *deltaRec) entry() PlanEntry {
	return PlanEntry{Path: rec.path, Slices: rec.slices, Finish: rec.finish,
		Candidates: rec.candidates, PathIndex: rec.pathIndex}
}

// candCache memoizes the union of links across a flow's candidate paths
// (the screen set for the generation checks) and the best capacity any
// candidate offers. Candidate paths are a pure function of (src, dst, key)
// within one routing epoch; Invalidate clears the cache on epoch change.
type candCache struct {
	src, dst topology.NodeID
	links    []topology.LinkID
	rate     float64 // max MinCapacity over candidate paths
}

// NewDeltaPlanner wraps p. maxDirtyFrac <= 0 selects DefaultMaxDirtyFrac.
func NewDeltaPlanner(p *Planner, maxDirtyFrac float64) *DeltaPlanner {
	if maxDirtyFrac <= 0 {
		maxDirtyFrac = DefaultMaxDirtyFrac
	}
	return &DeltaPlanner{
		planner: p,
		frac:    maxDirtyFrac,
		recs:    make(map[uint64]*deltaRec),
		cands:   make(map[uint64]*candCache),
	}
}

// MaxDirty is the dirty-set budget for a pass over n flows; at least one
// flow (the newcomer) must always be plannable.
func (d *DeltaPlanner) MaxDirty(n int) int {
	m := int(d.frac * float64(n))
	if m < 1 {
		m = 1
	}
	return m
}

// Records reports how many flow records the planner currently holds.
func (d *DeltaPlanner) Records() int { return len(d.recs) }

// PlanAll runs one incremental pass over reqs (already sorted by the
// caller, like Planner.PlanAll), starting from EMPTY occupancy — the only
// occupancy the records can vouch for. ok=false means the pass aborted: no
// usable entries; run the full planner and hand its result to Adopt.
//
//taps:hotpath
func (d *DeltaPlanner) PlanAll(now simtime.Time, reqs []FlowReq) ([]PlanEntry, DeltaStats, bool) {
	stats := DeltaStats{Flows: len(reqs)}
	if len(d.recs) == 0 {
		// First pass, or everything was invalidated: nothing to reuse.
		stats.Replanned = len(reqs)
		return nil, stats, false
	}
	p := d.planner
	p.occ.reset(p.Graph.NumLinks())
	window := p.planWindow(now, reqs)
	maxDirty := d.MaxDirty(len(reqs))
	if cap(d.entriesScratch) < len(reqs) {
		d.entriesScratch = make([]PlanEntry, len(reqs)) //taps:allow hotpathalloc grow-once scratch, reused across passes once it fits
	}
	entries := d.entriesScratch[:len(reqs)]
	for i, r := range reqs {
		e, ok := d.reuse(now, r, window)
		if !ok {
			stats.Replanned++
			if stats.Replanned > maxDirty {
				return nil, stats, false
			}
			entries[i] = p.planOne(now, r, window) // claims its own slices
			d.note(now, r, entries[i])
			continue
		}
		entries[i] = e
		p.occ.claim(e.Path, &entries[i].Slices, e.Finish)
	}
	return entries, stats, true
}

// reuse screens one flow against its record and, when any tier proves the
// stored allocation is exactly what planOne would produce against the
// current pass prefix in the planner's occupancy, returns the re-emitted
// entry.
//
//taps:hotpath
func (d *DeltaPlanner) reuse(now simtime.Time, r FlowReq, window simtime.Interval) (PlanEntry, bool) {
	if r.Src == r.Dst || r.Bytes <= 0 {
		// planOne's trivial case; a leftover record's future grant (if
		// any) vanishes from the plan, which is a free.
		if rec := d.recs[r.Key]; rec != nil {
			d.dropRec(now, r.Key, rec)
		}
		return PlanEntry{Finish: now, PathIndex: -1}, true
	}
	rec := d.recs[r.Key]
	if rec == nil || rec.src != r.Src || rec.dst != r.Dst || rec.deadline != r.Deadline {
		return PlanEntry{}, false
	}
	cc := d.cand(r, rec)
	if e, ok := d.reuseHead(now, r, window, rec, cc); ok {
		return e, true
	}
	if r.Bytes != rec.bytes {
		return PlanEntry{}, false
	}
	ivs := rec.slices.Intervals()
	if len(ivs) == 0 || ivs[0].Start < now || ivs[len(ivs)-1].End > window.End {
		return PlanEntry{}, false
	}
	if d.idx.maxTouch(cc.links) <= rec.snap {
		// Skip tier: no candidate link's occupancy moved at all.
		rec.snap = d.idx.clock
		return rec.entry(), true
	}
	if d.idx.maxFree(cc.links) > rec.snap {
		return PlanEntry{}, false
	}
	// Verify tier: inserts only — losing candidates only got worse, so the
	// stored path stays the winner iff it still yields the identical fit
	// (a sweep that runs past the stored finish has already lost it).
	d.planner.pathsTried++
	finish, ok := d.planner.evalPath(now, r, rec.finish+1, rec.path, &d.planner.scratch)
	if !ok || finish != rec.finish || !sameIntervals(d.planner.scratch.taken.Intervals(), ivs) {
		return PlanEntry{}, false
	}
	rec.snap = d.idx.clock
	return rec.entry(), true
}

// reuseHead is the head re-clip tier: a flow transmitting on its best-rate
// path-0 whose remaining work exactly fills the contiguous tail [now, end)
// of its stored grant, with that window still idle on the path, is
// unbeatable — every candidate needs at least e = bytes/rate time from now,
// and path 0 delivers exactly that at the lowest index. The emitted
// allocation clips the consumed prefix; the clip lives strictly in the past
// so no other flow's planning inputs change (no generation bump).
//
//taps:hotpath
func (d *DeltaPlanner) reuseHead(now simtime.Time, r FlowReq, window simtime.Interval, rec *deltaRec, cc *candCache) (PlanEntry, bool) {
	if rec.pathIndex != 0 || rec.linerate <= 0 || rec.linerate != cc.rate {
		return PlanEntry{}, false
	}
	ivs := rec.slices.Intervals()
	if len(ivs) == 0 {
		return PlanEntry{}, false
	}
	last := ivs[len(ivs)-1]
	if last.Start > now || last.End <= now {
		return PlanEntry{}, false
	}
	e := durationFor(r.Bytes, rec.linerate)
	if now+e != last.End || now+e > window.End {
		return PlanEntry{}, false
	}
	iv := simtime.Interval{Start: now, End: now + e}
	for _, l := range rec.path {
		if d.planner.occ.get(l).OverlapsInterval(iv) {
			return PlanEntry{}, false
		}
	}
	rec.slices = simtime.NewIntervalSet(iv)
	rec.bytes = r.Bytes
	rec.finish = iv.End
	rec.snap = d.idx.clock
	return PlanEntry{Path: rec.path, Slices: rec.slices, Finish: iv.End,
		Candidates: rec.candidates, PathIndex: 0}, true
}

// note records the outcome of a dirty re-plan, bumping the occupancy index
// for whatever actually changed.
func (d *DeltaPlanner) note(now simtime.Time, r FlowReq, e PlanEntry) {
	rec := d.recs[r.Key]
	if e.Path == nil {
		// Unroutable or starved within the window. Not recorded: a
		// nil-path outcome can depend on occupancy, so there is nothing
		// stable to validate against next pass — the flow stays dirty.
		if rec != nil {
			d.dropRec(now, r.Key, rec)
		}
		return
	}
	if rec != nil && pathsEqual(rec.path, e.Path) &&
		sameIntervals(rec.slices.Intervals(), e.Slices.Intervals()) {
		// Identical outcome: refresh the snapshot, occupancy unchanged.
		rec.bytes, rec.deadline, rec.src, rec.dst = r.Bytes, r.Deadline, r.Src, r.Dst
		rec.slices, rec.finish = e.Slices, e.Finish
		rec.pathIndex, rec.candidates = e.PathIndex, e.Candidates
		rec.snap = d.idx.clock
		return
	}
	if rec == nil {
		rec = &deltaRec{}
		d.recs[r.Key] = rec
	} else {
		// The old grant's future region is returned to the links.
		d.idx.bump(rec.path, true)
	}
	d.idx.bump(e.Path, false)
	*rec = deltaRec{
		bytes: r.Bytes, deadline: r.Deadline, src: r.Src, dst: r.Dst,
		path: e.Path, slices: e.Slices, finish: e.Finish,
		pathIndex: e.PathIndex, candidates: e.Candidates,
		linerate: d.planner.Graph.MinCapacity(e.Path),
		snap:     d.idx.clock,
		cc:       rec.cc, // endpoints re-validated by cand() on use
	}
}

// dropRec forgets a flow's record; if its grant still reached into the
// future, that capacity is returned to the links (a free).
func (d *DeltaPlanner) dropRec(now simtime.Time, key uint64, rec *deltaRec) {
	delete(d.recs, key)
	if ivs := rec.slices.Intervals(); len(ivs) > 0 && ivs[len(ivs)-1].End > now {
		d.idx.bump(rec.path, true)
	}
}

// Revoke removes a flow from the index: finished, killed, preempted, or
// virtually complete. Idempotent; unknown keys are ignored.
func (d *DeltaPlanner) Revoke(now simtime.Time, key uint64) {
	if rec := d.recs[key]; rec != nil {
		d.dropRec(now, key, rec)
	}
	delete(d.cands, key)
}

// Invalidate drops every record and candidate cache: the routing epoch
// changed (link-down), so stored paths and candidate sets are void. The
// next pass falls back to the full planner and re-Adopts.
func (d *DeltaPlanner) Invalidate() {
	clear(d.recs)
	clear(d.cands)
}

// Adopt replaces all records with the outcome of a full Planner.PlanAll
// over the same (reqs, entries) pass — the fallback path. Any tentative
// bumps an aborted delta pass left behind are harmless: the adopted
// snapshots are strictly newer than every earlier clock value.
func (d *DeltaPlanner) Adopt(reqs []FlowReq, entries []PlanEntry) {
	snap := d.idx.tick()
	clear(d.recs)
	for i := range entries {
		e := &entries[i]
		if e.Path == nil {
			continue
		}
		r := &reqs[i]
		d.recs[r.Key] = &deltaRec{
			bytes: r.Bytes, deadline: r.Deadline, src: r.Src, dst: r.Dst,
			path: e.Path, slices: e.Slices, finish: e.Finish,
			pathIndex: e.PathIndex, candidates: e.Candidates,
			linerate: d.planner.Graph.MinCapacity(e.Path),
			snap:     snap,
		}
	}
}

// cand returns the flow's memoized candidate-link union, rebuilding it if
// the endpoints changed. Links are appended in candidate-path order with a
// seen-set for dedup, so the slice is deterministic. rec.cc is the fast
// path; the cands map persists the cache across Adopt (which rebuilds all
// records).
func (d *DeltaPlanner) cand(r FlowReq, rec *deltaRec) *candCache {
	if cc := rec.cc; cc != nil && cc.src == r.Src && cc.dst == r.Dst {
		return cc
	}
	if cc := d.cands[r.Key]; cc != nil && cc.src == r.Src && cc.dst == r.Dst {
		rec.cc = cc
		return cc
	}
	cc := &candCache{src: r.Src, dst: r.Dst}
	paths := d.planner.Routing.Paths(r.Src, r.Dst, d.planner.MaxPaths, r.Key)
	if n := d.planner.Graph.NumLinks(); len(d.seenGen) < n {
		d.seenGen = append(d.seenGen, make([]uint64, n-len(d.seenGen))...)
	}
	d.seenEpoch++
	for _, p := range paths {
		if len(p) == 0 {
			continue
		}
		if c := d.planner.Graph.MinCapacity(p); c > cc.rate {
			cc.rate = c
		}
		for _, l := range p {
			for int(l) >= len(d.seenGen) {
				d.seenGen = append(d.seenGen, 0)
			}
			if d.seenGen[l] != d.seenEpoch {
				d.seenGen[l] = d.seenEpoch
				cc.links = append(cc.links, l)
			}
		}
	}
	d.cands[r.Key] = cc
	rec.cc = cc
	return cc
}

func pathsEqual(a, b topology.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameIntervals(a, b []simtime.Interval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
