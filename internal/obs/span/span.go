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
// Design constraints match internal/obs: every method on a nil *Recorder
// is a no-op, so recording defaults off with zero cost on the planning hot
// path (emitters guard the *construction* of a record's payload behind
// declog.Sink.On, and the planner alloc pins in internal/core verify
// nothing leaks in). The mutators have one caller: the fold in
// internal/obs/declog, which a live declog.Sink and the Replayer share —
// nothing else writes to a tree. A Recorder may be read (Snapshot) by HTTP
// exporters while recording continues.
// The recorder stores only simulated time — never the wall clock — so a
// trace of a deterministic run is itself deterministic.
package span

import (
	"sync"

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
	Candidates int                // candidate paths evaluated (Alg. 2 line 3)
	PathIndex  int                // winning candidate index, -1 if none fit
	Path       []int32            // link IDs of the winning path
	Slices     []simtime.Interval // granted transmission windows
	Finish     simtime.Time       // planned finish (simtime.Infinity if unroutable)
	Deadline   simtime.Time
	Missed     bool // planned finish exceeds the deadline (or unroutable)
}

// ReplanSpan is one planning pass over a set of flows.
type ReplanSpan struct {
	Seq        int // 1-based pass number, assigned by Record
	Time       simtime.Time
	Kind       ReplanKind
	Trigger    int64 // task that caused the pass (NoTask for recovery)
	Flows      int   // flows handed to the planner
	PathsTried int64 // candidate paths examined across the pass
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

// Segment is one constant-rate stretch of a flow's transmission (mirrors
// sim.Segment without importing sim).
type Segment struct {
	Interval simtime.Interval
	Rate     float64
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
	Flows       []int64
	Blocks      []LinkBlock // attribution chain (rejected / preempted tasks)
}

// Tree is a point-in-time snapshot of the recorded span forest, safe to
// read while recording continues. Tasks and Flows are in first-seen order;
// Replans in pass order.
type Tree struct {
	Tasks     []TaskSpan
	Flows     []FlowSpan
	Replans   []ReplanSpan
	LinkDowns []LinkDown
}

// LinkDown marks an injected link failure.
type LinkDown struct {
	Time simtime.Time
	Link int32
}

// Recorder collects span trees. Create with NewRecorder; a nil *Recorder
// is a valid disabled recorder on which every method no-ops.
type Recorder struct {
	mu        sync.Mutex
	tasks     map[int64]*TaskSpan
	taskOrder []int64
	flows     map[int64]*FlowSpan
	flowOrder []int64
	replans   []ReplanSpan
	downs     []LinkDown
}

// NewRecorder returns an enabled span recorder.
func NewRecorder() *Recorder {
	return &Recorder{
		tasks: make(map[int64]*TaskSpan),
		flows: make(map[int64]*FlowSpan),
	}
}

// task returns (creating if needed) the span of a task. Caller holds mu.
func (r *Recorder) task(id int64) *TaskSpan {
	t, ok := r.tasks[id]
	if !ok {
		t = &TaskSpan{Task: id, PreemptedBy: NoTask}
		r.tasks[id] = t
		r.taskOrder = append(r.taskOrder, id)
	}
	return t
}

// flow returns (creating if needed) the span of a flow. Caller holds mu.
func (r *Recorder) flow(id int64) *FlowSpan {
	f, ok := r.flows[id]
	if !ok {
		f = &FlowSpan{Flow: id, Task: NoTask}
		r.flows[id] = f
		r.flowOrder = append(r.flowOrder, id)
	}
	return f
}

// TaskArrived opens a task span.
func (r *Recorder) TaskArrived(task int64, arrival, deadline simtime.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	t := r.task(task)
	t.Arrival, t.Deadline = arrival, deadline
	r.mu.Unlock()
}

// FlowArrived opens a flow span under its task. label is a human route
// description ("h3->h17"); empty is fine.
func (r *Recorder) FlowArrived(flow, task int64, arrival, deadline simtime.Time, label string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	f := r.flow(flow)
	f.Task, f.Label, f.Arrival, f.Deadline = task, label, arrival, deadline
	t := r.task(task)
	t.Flows = append(t.Flows, flow)
	r.mu.Unlock()
}

// Replan records one planning pass. The recorder takes ownership of rs and
// its Plans slice; Seq is assigned here.
func (r *Recorder) Replan(rs ReplanSpan) {
	if r == nil {
		return
	}
	r.mu.Lock()
	rs.Seq = len(r.replans) + 1
	r.replans = append(r.replans, rs)
	r.mu.Unlock()
}

// TaskEnded closes a task span with its terminal outcome. Attribution and
// PreemptedBy, when any, are recorded separately (Attribute, PreemptedBy)
// in whichever order the control flow reaches them.
func (r *Recorder) TaskEnded(task int64, at simtime.Time, outcome Outcome, reason string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	t := r.task(task)
	t.End, t.Outcome, t.Reason = at, outcome, reason
	r.mu.Unlock()
}

// PreemptedBy names the newcomer whose admission displaced the victim.
func (r *Recorder) PreemptedBy(victim, newcomer int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.task(victim).PreemptedBy = newcomer
	r.mu.Unlock()
}

// Attribute attaches the attribution chain of a rejection or preemption:
// the links whose occupancy left no feasible window, busiest first.
func (r *Recorder) Attribute(task int64, blocks []LinkBlock) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.task(task).Blocks = blocks
	r.mu.Unlock()
}

// FlowEnded closes a flow span.
func (r *Recorder) FlowEnded(flow int64, at simtime.Time, done, onTime bool, note string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	f := r.flow(flow)
	f.End, f.Ended, f.Done, f.OnTime, f.Note = at, true, done, onTime, note
	r.mu.Unlock()
}

// ImportSegments replaces a flow's transmission segments wholesale (bulk
// import from sim.Result.Segments at the end of a run).
func (r *Recorder) ImportSegments(flow int64, segs []Segment) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.flow(flow).Segments = segs
	r.mu.Unlock()
}

// LinkWentDown marks an injected link failure.
func (r *Recorder) LinkWentDown(link int32, at simtime.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.downs = append(r.downs, LinkDown{Time: at, Link: link})
	r.mu.Unlock()
}

// Snapshot returns a deep copy of the recorded forest, in deterministic
// (first-seen / pass) order. Safe to call while recording continues; nil
// recorders return an empty tree.
func (r *Recorder) Snapshot() *Tree {
	t := &Tree{}
	if r == nil {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t.Tasks = make([]TaskSpan, 0, len(r.taskOrder))
	for _, id := range r.taskOrder {
		ts := *r.tasks[id]
		ts.Flows = append([]int64(nil), ts.Flows...)
		ts.Blocks = cloneBlocks(ts.Blocks)
		t.Tasks = append(t.Tasks, ts)
	}
	t.Flows = make([]FlowSpan, 0, len(r.flowOrder))
	for _, id := range r.flowOrder {
		fs := *r.flows[id]
		fs.Segments = append([]Segment(nil), fs.Segments...)
		t.Flows = append(t.Flows, fs)
	}
	t.Replans = make([]ReplanSpan, 0, len(r.replans))
	for _, rs := range r.replans {
		c := rs
		c.Plans = make([]PlanSpan, len(rs.Plans))
		for i, p := range rs.Plans {
			c.Plans[i] = p
			c.Plans[i].Path = append([]int32(nil), p.Path...)
			c.Plans[i].Slices = append([]simtime.Interval(nil), p.Slices...)
		}
		t.Replans = append(t.Replans, c)
	}
	t.LinkDowns = append([]LinkDown(nil), r.downs...)
	return t
}

func cloneBlocks(blocks []LinkBlock) []LinkBlock {
	if blocks == nil {
		return nil
	}
	out := make([]LinkBlock, len(blocks))
	for i, b := range blocks {
		out[i] = b
		out[i].Holders = append([]Holder(nil), b.Holders...)
	}
	return out
}

// Task returns the snapshot's span for a task, or nil.
func (t *Tree) Task(id int64) *TaskSpan {
	for i := range t.Tasks {
		if t.Tasks[i].Task == id {
			return &t.Tasks[i]
		}
	}
	return nil
}

// Flow returns the snapshot's span for a flow, or nil.
func (t *Tree) Flow(id int64) *FlowSpan {
	for i := range t.Flows {
		if t.Flows[i].Flow == id {
			return &t.Flows[i]
		}
	}
	return nil
}

// planRef is one plan of a flow plus the pass that produced it.
type planRef struct {
	at   simtime.Time
	seq  int
	plan *PlanSpan
}

// plansOf collects a flow's plans in pass order.
func (t *Tree) plansOf(flow int64) []planRef {
	var out []planRef
	for i := range t.Replans {
		rs := &t.Replans[i]
		for j := range rs.Plans {
			if rs.Plans[j].Flow == flow {
				out = append(out, planRef{at: rs.Time, seq: rs.Seq, plan: &rs.Plans[j]})
			}
		}
	}
	return out
}

// RevokedWindows returns the slice windows that were granted to the flow
// and later revoked before use: the tail of a superseded plan's slices
// past the instant the next pass re-planned the flow, plus — for killed
// flows — the final plan's slices past the kill instant. This is what the
// Gantt renderer marks '~' and the trace exporter flags revoked=true.
func (t *Tree) RevokedWindows(flow int64) []simtime.Interval {
	plans := t.plansOf(flow)
	if len(plans) == 0 {
		return nil
	}
	var revoked simtime.IntervalSet
	for i, pr := range plans {
		var cutoff simtime.Time = -1
		if i+1 < len(plans) {
			cutoff = plans[i+1].at
		} else if f := t.Flow(flow); f != nil && f.Ended && !f.Done {
			cutoff = f.End
		}
		if cutoff < 0 {
			continue
		}
		for _, iv := range pr.plan.Slices {
			if iv.End > cutoff {
				revoked.Add(simtime.Interval{Start: max(iv.Start, cutoff), End: iv.End})
			}
		}
	}
	return revoked.Intervals()
}
