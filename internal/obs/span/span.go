// Package span is the causal task-lifecycle tracing layer: where
// internal/obs records *that* the controller admitted, rejected or
// preempted a task, span captures *why* — the full decision chain from a
// task's arrival through every planning pass that touched it, down to the
// per-flow candidate-path choices, the granted per-link slice windows, the
// transmission segments actually driven, and the terminal outcome.
//
// The tree has four levels:
//
//	TaskSpan          one per task: arrival -> terminal outcome
//	  ReplanSpan      one per planning pass (full re-plan, fast admission,
//	                  post-reject/post-preempt re-plan, failure recovery)
//	    PlanSpan      one per flow placed by the pass: candidates tried,
//	                  winning path, granted slice windows, planned finish
//	  FlowSpan        one per flow: lifecycle + transmission segments
//
// On every rejection or preemption the planner attaches an *attribution
// chain* (LinkBlock): the links whose occupancy left no feasible window
// inside the task's deadline, and the accepted tasks holding slices there.
// This makes the §IV-B reject-rule decisions auditable: `tapsim -why N`
// prints the chain, and the Chrome trace_event export (export.go) renders
// one track per link and per task in chrome://tracing / Perfetto.
//
// A tree is never kept live: the decision log (internal/obs/declog) is the
// one record of a run, and declog.Replayer is the one thing that builds a
// Tree, by folding the log's records in order. Emitters guard the
// *construction* of a record's payload behind declog.Sink.On, so tracing
// costs nothing on the planning hot path when no log is attached (the
// planner alloc pins in internal/core verify nothing leaks in).
// A tree holds only simulated time — never the wall clock — so a trace of
// a deterministic run is itself deterministic.
package span

import (
	"fmt"

	"taps/internal/simtime"
)

// NoTask marks task fields that name no task.
const NoTask int64 = -1

// Outcome is the terminal state of a task span.
type Outcome uint8

// Task outcomes.
const (
	// OutcomeRunning: no terminal event recorded yet.
	OutcomeRunning Outcome = iota
	// OutcomeCompleted: every flow of the task delivered all bytes.
	OutcomeCompleted
	// OutcomeRejected: discarded before admission by the reject rule.
	OutcomeRejected
	// OutcomePreempted: admitted, then sacrificed for a newcomer
	// (PreemptedBy names the task that displaced it).
	OutcomePreempted
	// OutcomeKilled: terminated for any other reason (deadline miss kill,
	// disconnection by link failure).
	OutcomeKilled

	outcomeCount
)

var outcomeNames = [outcomeCount]string{
	"running", "completed", "rejected", "preempted", "killed",
}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return "outcome(?)"
}

// ReplanKind classifies one planning pass.
type ReplanKind uint8

// Planning pass kinds. Decision logs store the numbers; 1 and 5 are
// reserved (the log reader yields an older log's kind 5 as ReplanArrival).
const (
	// ReplanArrival is Alg. 1's global re-plan triggered by a task arrival.
	ReplanArrival ReplanKind = iota
	_
	// ReplanPostReject re-plans the survivors after the newcomer was
	// discarded (Trigger names the rejected task).
	ReplanPostReject
	// ReplanPostPreempt re-plans after an admitted victim was discarded in
	// favor of the newcomer (Trigger names the victim).
	ReplanPostPreempt
	// ReplanRecovery re-plans around an injected link failure.
	ReplanRecovery
	_

	replanKindCount
)

var replanKindNames = [replanKindCount]string{
	"arrival", "", "post-reject", "post-preempt", "recovery", "",
}

func (k ReplanKind) String() string {
	if int(k) < len(replanKindNames) && replanKindNames[k] != "" {
		return replanKindNames[k]
	}
	return "replan(?)"
}

// PlanSpan is the planner's decision for one flow inside one pass: which
// candidate paths were evaluated, which won, and which per-link slice
// windows the flow was granted.
type PlanSpan struct {
	Flow       int64
	Task       int64
	Candidates int                // candidate paths of the search (Alg. 2 line 3), swept or dismissed
	PathIndex  int                // winning candidate index, -1 if none fit
	Path       []int32            // link IDs of the winning path
	Slices     []simtime.Interval // granted transmission windows
	Finish     simtime.Time       // planned finish (simtime.Infinity if unroutable)
	Deadline   simtime.Time
	Missed     bool // planned finish exceeds the deadline (or unroutable)
}

// ReplanSpan is one planning pass over a set of flows.
type ReplanSpan struct {
	Seq        int  // 1-based pass number, assigned by the replay
	Committed  bool // installed as the plan by a commit, marked by the replay
	Time       simtime.Time
	Kind       ReplanKind
	Trigger    int64 // task that caused the pass (NoTask for recovery)
	Flows      int   // flows handed to the planner
	PathsTried int64 // candidates examined, or dismissed by the shared-hop bound, across the pass
	Plans      []PlanSpan
}

// Holder is one accepted task occupying slices on a blocking link.
type Holder struct {
	Task int64
	Busy simtime.Time // its slice time on the link within the blocked window
}

// LinkBlock is one step of an attribution chain: a link whose occupancy
// left no feasible window for the rejected task, and who holds it.
type LinkBlock struct {
	Link    int32
	Window  simtime.Interval // the window the flow needed (now .. deadline)
	Busy    simtime.Time     // total slice time held by others within Window
	Holders []Holder         // busiest first
}

// Segment is one constant-rate stretch of a flow's transmission; the
// simulator records its runs in this type (sim.Segment is an alias).
type Segment struct {
	Interval simtime.Interval
	Rate     float64 // bytes/second
}

// FlowSpan is one flow's lifecycle.
type FlowSpan struct {
	Flow     int64
	Task     int64
	Label    string // human route label, e.g. "h3->h17" (optional)
	Arrival  simtime.Time
	Deadline simtime.Time
	End      simtime.Time // completion or kill instant (0 while active)
	Ended    bool
	Done     bool // all bytes delivered
	OnTime   bool
	Note     string // kill note
	Segments []Segment
}

// TaskSpan is the root of one task's causal tree.
type TaskSpan struct {
	Task        int64
	Arrival     simtime.Time
	Deadline    simtime.Time
	End         simtime.Time
	Outcome     Outcome
	Reason      string // kill note / decision reason
	PreemptedBy int64  // task whose admission displaced this one (NoTask otherwise)
	Admitted    bool   // an admit record named it
	Flows       []int64
	Blocks      []LinkBlock // attribution chain (rejected / preempted tasks)
}

// Tree is the span forest a decision log replays into. Tasks and Flows are
// in first-seen order; Replans in pass order. LinkNames is the log's
// link-name table (Meta record), indexed by link ID.
type Tree struct {
	Tasks     []TaskSpan
	Flows     []FlowSpan
	Replans   []ReplanSpan
	LinkDowns []LinkDown
	LinkNames []string
}

// LinkName labels a link for the exporters: its name from the log, or
// "link N" when the log names none.
func (t *Tree) LinkName(l int32) string {
	if l >= 0 && int(l) < len(t.LinkNames) {
		return t.LinkNames[l]
	}
	return fmt.Sprintf("link %d", l)
}

// LinkDown marks an injected link failure.
type LinkDown struct {
	Time simtime.Time
	Link int32
}

// Task returns the tree's span for a task, or nil.
func (t *Tree) Task(id int64) *TaskSpan {
	for i := range t.Tasks {
		if t.Tasks[i].Task == id {
			return &t.Tasks[i]
		}
	}
	return nil
}

// Flow returns the tree's span for a flow, or nil.
func (t *Tree) Flow(id int64) *FlowSpan {
	for i := range t.Flows {
		if t.Flows[i].Flow == id {
			return &t.Flows[i]
		}
	}
	return nil
}

// Accepted reports whether the task was admitted and not discarded since
// (rejected or preempted). A nil span, a task the tree never saw, is not
// accepted.
func (ts *TaskSpan) Accepted() bool {
	return ts != nil && ts.Admitted && !ts.discarded()
}

func (ts *TaskSpan) discarded() bool {
	return ts.Outcome == OutcomeRejected || ts.Outcome == OutcomePreempted
}

// FlowsInPlay is whether each flow is done, for the flows of the tasks
// not discarded: those of rejected and preempted tasks are dropped, as
// the controller does.
func (t *Tree) FlowsInPlay() map[int64]bool {
	done := make(map[int64]bool, len(t.Flows))
	for i := range t.Flows {
		done[t.Flows[i].Flow] = t.Flows[i].Done
	}
	out := make(map[int64]bool)
	for i := range t.Tasks {
		if ts := &t.Tasks[i]; !ts.discarded() {
			for _, id := range ts.Flows {
				out[id] = done[id]
			}
		}
	}
	return out
}

// Plan is the pass the latest commit installed, whole: the slices of
// every flow it routed, missed ones included (a flow it left out holds
// nothing), and the per-link busy calendar they make from the commit
// instant on. Both are nil before the first commit.
func (t *Tree) Plan() (grants map[int64]simtime.IntervalSet, occ map[int32]simtime.IntervalSet) {
	i := len(t.Replans) - 1
	for i >= 0 && !t.Replans[i].Committed {
		i--
	}
	if i < 0 {
		return nil, nil
	}
	rs := &t.Replans[i]
	grants, occ = make(map[int64]simtime.IntervalSet, len(rs.Plans)), make(map[int32]simtime.IntervalSet)
	for j := range rs.Plans {
		p := &rs.Plans[j]
		if p.Path == nil {
			continue
		}
		grant := simtime.NewIntervalSet(p.Slices...)
		grants[p.Flow] = grant
		for _, l := range p.Path {
			set := occ[l]
			set.UnionInPlace(&grant)
			occ[l] = set
		}
	}
	for l, set := range occ {
		set.GCBefore(rs.Time)
		occ[l] = set
	}
	return grants, occ
}

// grant is one committed plan of a flow and the instant its windows stop
// being the flow's (cutoff): where the next committed pass re-plans the
// flow, else where the flow is killed, else never (simtime.Infinity). The
// part of a window past the cutoff is a revoked grant. A pass that was
// never committed — the tentative pass of an arrival the reject rule
// discarded — granted nothing and revokes nothing.
type grant struct {
	seq    int
	plan   *PlanSpan
	cutoff simtime.Time
}

// grants groups the tree's committed plans by flow, in pass order, with
// their cutoffs. It is one pass over the tree, so a caller that visits
// every flow looks each one up instead of scanning every plan per flow.
func (t *Tree) grants() map[int64][]grant {
	byFlow := make(map[int64][]grant)
	for i := range t.Replans {
		rs := &t.Replans[i]
		if !rs.Committed {
			continue
		}
		for j := range rs.Plans {
			p := &rs.Plans[j]
			gs := byFlow[p.Flow]
			if n := len(gs); n > 0 {
				gs[n-1].cutoff = rs.Time
			}
			byFlow[p.Flow] = append(gs, grant{seq: rs.Seq, plan: p, cutoff: simtime.Infinity})
		}
	}
	for i := range t.Flows {
		fs := &t.Flows[i]
		if gs := byFlow[fs.Flow]; len(gs) > 0 && fs.Ended && !fs.Done {
			gs[len(gs)-1].cutoff = fs.End
		}
	}
	return byFlow
}

// revoked merges the parts of a flow's grants past their cutoffs.
func revoked(gs []grant) []simtime.Interval {
	var set simtime.IntervalSet
	for _, g := range gs {
		for _, iv := range g.plan.Slices {
			if iv.End > g.cutoff {
				set.Add(simtime.Interval{Start: max(iv.Start, g.cutoff), End: iv.End})
			}
		}
	}
	return set.Intervals()
}

// RevokedByFlow returns, keyed by flow, the slice windows that were
// granted to a flow and later revoked before use: the tail of a committed
// plan's slices past the instant the next committed pass re-planned the
// flow, plus — for killed flows — the last committed plan's slices past
// the kill instant. This is what the Gantt renderer marks '~' and the
// trace exporter flags revoked=true. Flows with none are left out.
func (t *Tree) RevokedByFlow() map[int64][]simtime.Interval {
	out := make(map[int64][]simtime.Interval)
	for flow, gs := range t.grants() {
		if ivs := revoked(gs); len(ivs) > 0 {
			out[flow] = ivs
		}
	}
	return out
}
