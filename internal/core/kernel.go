package core

import (
	"cmp"
	"slices"

	"taps/internal/obs"
	"taps/internal/obs/declog"
	"taps/internal/obs/span"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// Decision records written by the kernel carry these reasons.
const (
	reasonRejected  = "taps: task discarded by reject rule"
	reasonPreempted = "taps: task preempted by reject rule"
)

// FlowSpec describes one flow of an arriving task.
type FlowSpec struct {
	Key      uint64
	Src, Dst topology.NodeID
	Size     int64
}

// Flow is the kernel's record of one flow. The kernel owns it; adapters
// read it (the grant to ship to a sender, the route to install) and never
// write it.
type Flow struct {
	// FlowReq is the request the planner sees for the flow. Bytes is what
	// the flow had left to send at the kernel's latest input — the amount
	// Slices was sized for — and, once Done, what it left undelivered.
	FlowReq
	Task int64
	Size int64

	// Path and Slices are the committed grant: the route and the exclusive
	// transmission windows on it. Both are empty while the flow is unrouted.
	Path   topology.Path
	Slices simtime.IntervalSet

	// Done marks a flow that is no longer in flight: it finished, or its
	// task was discarded.
	Done bool
}

// DataPlane is what an adapter knows and the kernel cannot: how far the
// senders have got, and how to stop them.
type DataPlane interface {
	// Remaining reports how many bytes f still has to send at now; zero or
	// less once it has delivered everything or will send no more. The
	// kernel asks when an input opens a pass, before it touches the record,
	// so the answer may be derived from f's own grant.
	Remaining(f *Flow, now simtime.Time) float64
	// Discard tells the adapter that the reject rule has discarded task —
	// the newcomer itself when by is span.NoTask, otherwise an admitted
	// task preempted in favour of newcomer by — so that it stops the
	// task's flows. The kernel forgets the task when the call returns;
	// until then Flows and Fraction still answer for it.
	Discard(now simtime.Time, task, by int64)
}

// Kernel is the TAPS decision procedure, written once: it owns the table
// of in-flight flows and, for every input, sorts them by priority, plans
// all of them (Alg. 1–3), applies the §IV-B reject rule, re-plans without
// the discarded task and commits the surviving pass whole. It performs no
// I/O and reads no clock: every input carries its own now. The simulator
// scheduler, the networked controller and the SDN testbed are adapters
// around it.
//
// A Kernel is not safe for concurrent use.
type Kernel struct {
	// Sink, when on, receives the decision records — Replan, Attr,
	// Reject/Preempt/Admit, Commit — once each, for the decision log and
	// the decision counters alike, and its recorder (Sink.Obs) what each
	// planning pass cost in wall-clock time; an adapter that reports the
	// lifecycle around them shares the same sink. Nil keeps the planning
	// path free of recording work.
	Sink *declog.Sink

	cfg     Config
	dp      DataPlane
	planner *Planner

	flows map[uint64]*Flow
	tasks map[int64][]*Flow // every flow of a task, arrival order
	live  []*Flow           // flows in flight, any order; finished ones are swept by sweep

	// The pass in progress, and after commit the pass just installed:
	// flows in plan order with their requests, and the flows in flight
	// that had nothing left to plan.
	order   []*Flow
	reqs    []FlowReq
	spent   []*Flow
	missing map[int64]bool

	// The span records of the pass last emitted (spanPlans).
	spans     []span.PlanSpan
	spanPaths []int32

	replans int
}

// NewKernel returns a kernel planning over g with routing r.
func NewKernel(g *topology.Graph, r topology.Routing, cfg Config, dp DataPlane) *Kernel {
	k := newKernel(cfg, dp)
	k.bind(g, r)
	return k
}

func newKernel(cfg Config, dp DataPlane) *Kernel {
	return &Kernel{
		cfg:   cfg,
		dp:    dp,
		flows: make(map[uint64]*Flow),
		tasks: make(map[int64][]*Flow),
	}
}

// bind gives the kernel its topology; the simulator scheduler learns it
// only from the first engine callback.
func (k *Kernel) bind(g *topology.Graph, r topology.Routing) {
	if k.planner != nil {
		return
	}
	k.planner = &Planner{Graph: g, Routing: r, MaxPaths: k.cfg.MaxPaths}
}

// Replans returns how many global planning passes the kernel has run.
func (k *Kernel) Replans() int { return k.replans }

// Flow returns the record of a flow, or nil when the kernel holds none.
func (k *Kernel) Flow(key uint64) *Flow { return k.flows[key] }

// Flows returns every flow of a task the kernel knows, finished ones
// included, in arrival order.
func (k *Kernel) Flows(task int64) []*Flow { return k.tasks[task] }

// Committed returns the flows of the pass installed by the latest input,
// in plan order. The pass is the whole plan: a flow in flight that is not
// in it holds nothing.
func (k *Kernel) Committed() []*Flow { return k.order }

// Fraction is a task's byte-completion fraction as of the latest input,
// the quantity the reject rule compares.
func (k *Kernel) Fraction(task int64) float64 {
	var total, sent float64
	for _, f := range k.tasks[task] {
		total += float64(f.Size)
		sent += float64(f.Size) - f.Bytes
	}
	if total == 0 {
		return 1
	}
	return sent / total
}

// compare orders two requests by the configured discipline; every
// discipline ends on the key, so the order is total.
func (o Ordering) compare(a, b *FlowReq) int {
	if c := cmp.Compare(a.Deadline, b.Deadline); c != 0 && o != OrderSJF {
		return c
	}
	if c := cmp.Compare(a.Bytes, b.Bytes); c != 0 && o != OrderEDF {
		return c
	}
	return cmp.Compare(a.Key, b.Key)
}

// TaskArrived is Alg. 1 for one task: register its flows, plan them
// together with everything in flight, apply the reject rule, re-plan
// without whichever task the rule discarded and commit. It returns the
// rule's decision and, for Preempt, the victim.
func (k *Kernel) TaskArrived(now simtime.Time, task int64, deadline simtime.Time, specs []FlowSpec) (Decision, int64) {
	recs := make([]Flow, len(specs))
	flows := make([]*Flow, len(specs))
	for i, fs := range specs {
		f := &recs[i]
		*f = Flow{
			FlowReq: FlowReq{Key: fs.Key, Src: fs.Src, Dst: fs.Dst, Bytes: float64(fs.Size), Deadline: deadline},
			Task:    task, Size: fs.Size,
		}
		// A local transfer never touches the network (its bytes count as
		// delivered), and a flow with nothing to send needs no grant: both
		// are finished on arrival.
		if fs.Src == fs.Dst {
			f.Done, f.Bytes = true, 0
		} else {
			f.Done = k.dp.Remaining(f, now) <= 0
		}
		flows[i] = f
		k.flows[fs.Key] = f
		if !f.Done {
			k.live = append(k.live, f)
		}
	}
	k.tasks[task] = flows

	k.sweep(now)
	entries := k.plan(now, span.ReplanArrival, task)
	decision, victim := Accept, span.NoTask
	if !k.cfg.DisableRejectRule {
		decision, victim = EvaluateRejectRule(k.missed(entries), task, k.Fraction, k.cfg.NoPreemption)
	}
	switch decision {
	case RejectNew:
		k.attribute(now, task, entries)
		k.Sink.Emit(&declog.Record{Kind: declog.KindReject, Time: now, Task: task, Reason: reasonRejected})
		k.discard(now, task, span.NoTask)
		entries = k.plan(now, span.ReplanPostReject, task)
	case Preempt:
		k.Sink.Emit(&declog.Record{Kind: declog.KindPreempt, Time: now, Task: victim, By: task,
			Fraction: k.Fraction(victim), Reason: reasonPreempted})
		k.attribute(now, victim, entries)
		k.discard(now, victim, task)
		entries = k.plan(now, span.ReplanPostPreempt, victim)
	case Accept:
	}
	k.commit(now, entries)
	if decision != RejectNew {
		k.Sink.Emit(&declog.Record{Kind: declog.KindAdmit, Time: now, Task: task})
	}
	return decision, victim
}

// FlowFinished takes a flow out of flight with left bytes undelivered:
// none when it delivered its last byte, more when its sender gave up on
// it. Its grant frees up for later passes. Unknown and already finished
// flows are ignored.
func (k *Kernel) FlowFinished(now simtime.Time, key uint64, left float64) {
	f := k.flows[key]
	if f == nil || f.Done {
		return
	}
	f.Done, f.Bytes = true, left
}

// LinkDown re-plans every flow in flight after the topology lost a link:
// the routing the kernel was given already excludes it, so the planner
// routes around it and re-packs the slices onto what is left.
func (k *Kernel) LinkDown(now simtime.Time) {
	k.sweep(now)
	k.commit(now, k.plan(now, span.ReplanRecovery, span.NoTask))
}

// Replan re-plans every flow in flight from now on behalf of an admitted
// task whose grant has to be issued again (a sender that lost its reply
// has also lost its first slices). No rule runs: nothing arrived.
func (k *Kernel) Replan(now simtime.Time, task int64) {
	k.sweep(now)
	k.commit(now, k.plan(now, span.ReplanArrival, task))
}

// EachInFlight calls fn for every flow in flight. fn may report the flow
// finished.
func (k *Kernel) EachInFlight(fn func(*Flow)) {
	for _, f := range k.live {
		if !f.Done {
			fn(f)
		}
	}
}

// LinkBusy unions, per link, the committed grants of the flows in flight,
// and counts the grants that claim link time another one already holds.
// A correct plan has none.
func (k *Kernel) LinkBusy() (busy map[topology.LinkID]simtime.IntervalSet, flows, overlaps int) {
	busy = make(map[topology.LinkID]simtime.IntervalSet)
	k.EachInFlight(func(f *Flow) {
		flows++
		for _, l := range f.Path {
			set := busy[l]
			if !simtime.Intersect(set, f.Slices).Empty() {
				overlaps++
			}
			set.UnionInPlace(&f.Slices)
			busy[l] = set
		}
	})
	return busy, flows, overlaps
}

// sweep opens a pass at now: it drops the flows that finished since the
// last one, asks the data plane how much every other flow has left, and
// sorts those with work to do into plan order.
func (k *Kernel) sweep(now simtime.Time) {
	live := k.live[:0]
	k.order, k.spent = k.order[:0], k.spent[:0]
	for _, f := range k.live {
		if f.Done {
			continue
		}
		live = append(live, f)
		f.Bytes = max(k.dp.Remaining(f, now), 0)
		if f.Bytes == 0 {
			// Complete as far as the data plane can tell; the report just
			// has not arrived. Nothing to schedule, and not a miss.
			k.spent = append(k.spent, f)
			continue
		}
		k.order = append(k.order, f)
	}
	clear(k.live[len(live):])
	k.live = live
	// Alg. 1: EDF, then SJF.
	slices.SortFunc(k.order, func(a, b *Flow) int { return k.cfg.Ordering.compare(&a.FlowReq, &b.FlowReq) })
	k.fillReqs()
}

// fillReqs lines the planner's requests up with the flows of the pass.
func (k *Kernel) fillReqs() {
	k.reqs = k.reqs[:0]
	for _, f := range k.order {
		k.reqs = append(k.reqs, f.FlowReq)
	}
}

// plan runs Alg. 2 over the pass, from empty occupancy, and records it.
// Nothing is installed in the flow table: the caller commits the pass it
// keeps, which is the last one it planned — the one whose occupancy the
// planner is left holding. kind and trigger label the pass.
func (k *Kernel) plan(now simtime.Time, kind span.ReplanKind, trigger int64) []PlanEntry {
	k.replans++
	paths := k.planner.PathsTried()
	timed := k.Sink != nil && k.Sink.Obs != nil
	var sw obs.Stopwatch // read only when the sink has a recorder
	if timed {
		sw = obs.StartStopwatch()
	}
	entries := k.planner.PlanAll(now, k.reqs)
	tried := k.planner.PathsTried() - paths
	if timed {
		k.Sink.Obs.ObservePlanner(sw.Elapsed())
	}
	if k.Sink.On() {
		k.Sink.Emit(&declog.Record{Kind: declog.KindReplan, Time: now, Replan: &span.ReplanSpan{
			Time: now, Kind: kind, Trigger: trigger,
			Flows: len(k.order), PathsTried: tried, Plans: k.spanPlans(entries),
		}})
	}
	return entries
}

// misses reports whether the pass failed flow i: unroutable, or planned
// to finish past its deadline.
func (k *Kernel) misses(i int, e *PlanEntry) bool {
	return e.Path == nil || e.Finish > k.order[i].Deadline
}

// missed classifies a pass for the reject rule: the tasks with a flow it
// failed. The map is reused by the next decision.
func (k *Kernel) missed(entries []PlanEntry) map[int64]bool {
	clear(k.missing)
	for i := range entries {
		if k.misses(i, &entries[i]) {
			if k.missing == nil {
				k.missing = make(map[int64]bool)
			}
			k.missing[k.order[i].Task] = true
		}
	}
	return k.missing
}

// discard drops a task the rule condemned — from the data plane, from the
// flow table and from the pass in progress.
func (k *Kernel) discard(now simtime.Time, task, by int64) {
	k.dp.Discard(now, task, by)
	for _, f := range k.tasks[task] {
		f.Done = true
		delete(k.flows, f.Key)
	}
	delete(k.tasks, task)
	k.order = slices.DeleteFunc(k.order, func(f *Flow) bool { return f.Task == task })
	k.fillReqs()
}

// commit installs a pass as the plan, whole: every flow of the pass takes
// the route and slices the pass gave it (none, if it found no route) and a
// flow in flight that the pass left out holds nothing. The occupancy needs
// no installing: the planner holds that of the pass it planned last, and
// a pass planned at now holds nothing before now to collect.
func (k *Kernel) commit(now simtime.Time, entries []PlanEntry) {
	for i, f := range k.order {
		f.Path, f.Slices = entries[i].Path, entries[i].Slices
	}
	for _, f := range k.spent {
		f.Path, f.Slices = nil, simtime.IntervalSet{}
	}
	k.Sink.Emit(&declog.Record{Kind: declog.KindCommit, Time: now})
}
