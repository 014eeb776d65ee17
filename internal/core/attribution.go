package core

import (
	"sort"

	"taps/internal/obs/declog"
	"taps/internal/obs/span"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// spanPlans converts one planning pass's entries into span records: one
// PlanSpan per flow, capturing the Alg. 2 search (candidates, winning
// path) and the Alg. 3 grant (slice windows, planned finish). Only called
// when span recording is enabled, so the copies here never touch the
// recording-disabled hot path.
func spanPlans(flows []*Flow, entries []PlanEntry) []span.PlanSpan {
	plans := make([]span.PlanSpan, len(entries))
	for i, f := range flows {
		e := entries[i]
		ps := span.PlanSpan{
			Flow: int64(f.Key), Task: f.Task,
			Candidates: e.Candidates, PathIndex: e.PathIndex,
			Finish: e.Finish, Deadline: f.Deadline,
			Missed: e.Finish > f.Deadline,
		}
		if e.Path != nil {
			ps.Path = make([]int32, len(e.Path))
			for j, l := range e.Path {
				ps.Path[j] = int32(l)
			}
			ps.Slices = append([]simtime.Interval(nil), e.Slices.Intervals()...)
		}
		plans[i] = ps
	}
	return plans
}

// attributionLimit caps an attribution chain: only the busiest links (and
// the busiest holders per link) are named.
const attributionLimit = 5

// linkAggs is the §IV-B chain walk behind rejection/preemption
// attribution: a set of watched contended links, each with the deadline
// window under contention and the per-task slice time other tasks hold
// there — "whose planned occupancy on these links intersects this window?"
type linkAggs map[topology.LinkID]*linkAgg

type linkAgg struct {
	window  simtime.Interval
	busy    simtime.Time
	holders map[int64]simtime.Time
}

// watch puts every link of path under watch for the given window, widening
// an already-watched link's window as needed.
func (aggs linkAggs) watch(path topology.Path, window simtime.Interval) {
	if window.Empty() {
		return
	}
	for _, l := range path {
		a, ok := aggs[l]
		if !ok {
			aggs[l] = &linkAgg{window: window, holders: make(map[int64]simtime.Time)}
		} else if window.End > a.window.End {
			a.window.End = window.End
		}
	}
}

// charge folds one flow's planned slices into every watched link its path
// crosses, crediting the overlap to its task.
func (aggs linkAggs) charge(task int64, path topology.Path, sl simtime.IntervalSet) {
	for _, l := range path {
		a, ok := aggs[l]
		if !ok {
			continue
		}
		if ov := sl.OverlapTotal(a.window); ov > 0 {
			a.busy += ov
			a.holders[task] += ov
		}
	}
}

// rank orders the watched links busiest first (ties by ID), capped at
// attributionLimit links with attributionLimit holders each, in the shape
// `tapsim -why` prints.
func (aggs linkAggs) rank() []span.LinkBlock {
	links := make([]topology.LinkID, 0, len(aggs))
	for l := range aggs {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool {
		a, b := aggs[links[i]], aggs[links[j]]
		if a.busy != b.busy {
			return a.busy > b.busy
		}
		return links[i] < links[j]
	})
	if len(links) > attributionLimit {
		links = links[:attributionLimit]
	}
	blocks := make([]span.LinkBlock, 0, len(links))
	for _, l := range links {
		a := aggs[l]
		blk := span.LinkBlock{Link: int32(l), Window: a.window, Busy: a.busy}
		holders := make([]int64, 0, len(a.holders))
		for t := range a.holders {
			holders = append(holders, t)
		}
		sort.Slice(holders, func(i, j int) bool {
			if a.holders[holders[i]] != a.holders[holders[j]] {
				return a.holders[holders[i]] > a.holders[holders[j]]
			}
			return holders[i] < holders[j]
		})
		if len(holders) > attributionLimit {
			holders = holders[:attributionLimit]
		}
		for _, t := range holders {
			blk.Holders = append(blk.Holders, span.Holder{Task: t, Busy: a.holders[t]})
		}
		blocks = append(blocks, blk)
	}
	return blocks
}

// attribute records why a tentative pass doomed a task: for each
// missed flow that sealed its fate, the links of the flow's (would-be)
// path whose occupancy within [now, deadline) left no feasible window, and
// the surviving tasks holding planned slices there. Normally the missed
// flows are the task's own; when a newcomer is rejected because admitting
// it would push an *incumbent* past its deadline (§IV-B's exactly-one-
// other-task-misses branch, lost on completion fraction), the task has no
// missed flows itself — the chain is then built from the windows its
// admission doomed, and the holders still name the survivors. Links and
// holders are ordered busiest first, ties by ID, capped at
// attributionLimit each — this is the chain `tapsim -why` prints and the
// trace export attaches to the terminal instant.
func (k *Kernel) attribute(now simtime.Time, task int64, entries []PlanEntry) {
	if k.Sink.On() {
		k.Sink.Emit(&declog.Record{Kind: declog.KindAttr, Time: now, Task: task,
			Blocks: k.attribution(now, task, entries)})
	}
}

func (k *Kernel) attribution(now simtime.Time, task int64, entries []PlanEntry) []span.LinkBlock {
	own := false
	for i, f := range k.order {
		own = own || (f.Task == task && k.misses(i, &entries[i]))
	}
	aggs := make(linkAggs)
	for i, f := range k.order {
		if !k.misses(i, &entries[i]) || (own && f.Task != task) {
			continue
		}
		path := entries[i].Path
		if path == nil {
			// Unroutable in this pass: attribute along the first candidate
			// path the planner considered for the flow.
			if cands := k.planner.Routing.Paths(f.Src, f.Dst, k.planner.MaxPaths, f.Key); len(cands) > 0 {
				path = cands[0]
			}
		}
		aggs.watch(path, simtime.Interval{Start: now, End: f.Deadline})
	}
	if len(aggs) == 0 {
		return nil
	}
	// Charge every other task's planned slices on those links.
	for i, f := range k.order {
		if f.Task != task && entries[i].Path != nil {
			aggs.charge(f.Task, entries[i].Path, entries[i].Slices)
		}
	}
	return aggs.rank()
}
