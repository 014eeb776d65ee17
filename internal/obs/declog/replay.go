package declog

import (
	"taps/internal/obs/span"
	"taps/internal/simtime"
)

// FlowState is the replayer's mirror of one in-flight flow: identity from
// its KindTask record, route and grant from the latest committed plan.
type FlowState struct {
	Flow     int64
	Task     int64
	Src      int32
	Dst      int32
	Size     int64
	Label    string
	Deadline simtime.Time
	Path     []int32
	Slices   simtime.IntervalSet
	// Sent lists, in commit order, the grants later commits superseded
	// after the flow had transmitted under them; what its current grant
	// has carried since follows from Slices.
	Sent []SentGrant
	Done bool
}

// SentGrant is the transmission time a flow consumed on the route of one
// superseded grant. The bytes that moved follow from the route's line rate,
// which the log does not record.
type SentGrant struct {
	Path []int32
	Time simtime.Time
}

// Replayer reconstructs controller state by folding decision records in
// log order. It is the only builder of a span tree, and it keeps two
// views at once:
//
//   - the span forest: task and flow lifecycles, every planning pass, the
//     attribution chains and transmission segments (Tree);
//   - the plan state: per-flow slice grants, per-link occupancy, and the
//     in-flight flow table, rebuilt by applying each KindCommit with its
//     recorded mode semantics — exactly the mutation the live scheduler
//     performed.
//
// SetUntil turns the replayer into a time-travel query: records stamped
// after the cutoff are ignored (segments are clipped), materializing the
// world as of that simulated instant.
type Replayer struct {
	tree       span.Tree
	taskAt     map[int64]int // index into tree.Tasks
	flowAt     map[int64]int // index into tree.Flows
	meta       *Meta
	slices     map[int64]simtime.IntervalSet
	occ        map[int32]simtime.IntervalSet
	flows      map[int64]*FlowState
	taskFlows  map[int64][]int64
	accepted   map[int64]bool
	decided    map[int64]bool
	lastReplan *span.ReplanSpan
	until      simtime.Time
	hasUntil   bool
	applied    int
}

// NewReplayer returns an empty replayer.
func NewReplayer() *Replayer {
	return &Replayer{
		taskAt:    make(map[int64]int),
		flowAt:    make(map[int64]int),
		slices:    make(map[int64]simtime.IntervalSet),
		occ:       make(map[int32]simtime.IntervalSet),
		flows:     make(map[int64]*FlowState),
		taskFlows: make(map[int64][]int64),
		accepted:  make(map[int64]bool),
		decided:   make(map[int64]bool),
	}
}

// SetUntil caps replay at simulated instant t: records stamped later are
// skipped and transmission segments are clipped to t. Set it before
// applying records.
func (r *Replayer) SetUntil(t simtime.Time) {
	r.until = t
	r.hasUntil = true
}

// ApplyAll folds a decoded log.
func (r *Replayer) ApplyAll(recs []Record) {
	for i := range recs {
		r.Apply(&recs[i])
	}
}

// Apply folds one record into the span forest and the plan state.
func (r *Replayer) Apply(rec *Record) {
	if r.hasUntil && rec.Time > r.until {
		// Past the cutoff. Segment records are the one exception: they are
		// bulk-imported at end-of-run but describe transmission all the way
		// back to arrival, so they are applied clipped instead of dropped.
		if rec.Kind != KindSegments {
			return
		}
	}
	r.applied++
	if rec.Kind == KindSegments && r.hasUntil {
		clipped := *rec
		clipped.Segments = r.clipSegments(rec.Segments)
		rec = &clipped
	}
	r.fold(rec)
	switch rec.Kind {
	case KindMeta:
		r.meta = rec.Meta
	case KindTask:
		r.decided[rec.Task] = true
		for i := range rec.Flows {
			fi := &rec.Flows[i]
			r.flows[fi.ID] = &FlowState{
				Flow: fi.ID, Task: rec.Task, Src: fi.Src, Dst: fi.Dst,
				Size: fi.Size, Label: fi.Label, Deadline: rec.Deadline,
			}
			r.taskFlows[rec.Task] = append(r.taskFlows[rec.Task], fi.ID)
		}
	case KindReplan:
		r.lastReplan = rec.Replan
	case KindCommit:
		r.applyCommit(rec.Time)
	case KindAdmit:
		r.accepted[rec.Task] = true
	case KindReject:
		r.accepted[rec.Task] = false
		r.dropTask(rec.Task)
	case KindPreempt:
		r.accepted[rec.Task] = false
		r.dropTask(rec.Task)
		r.accepted[rec.By] = true
	case KindFlowEnd:
		if f := r.flows[rec.Flow]; f != nil {
			f.Done = rec.Done
		}
	case KindAttr, KindTaskEnd, KindSegments, KindLinkDown:
	}
}

// fold applies one record to the span forest. The tree takes what the
// record points at (plans, chain, segments) without copying: whoever
// replays a record leaves it alone afterwards. Kinds that change plan
// state only leave the tree as it is.
func (r *Replayer) fold(rec *Record) {
	switch rec.Kind {
	case KindTask:
		t := r.task(rec.Task)
		t.Arrival, t.Deadline = rec.Time, rec.Deadline
		for i := range rec.Flows {
			f := r.flow(rec.Flows[i].ID)
			f.Task, f.Label, f.Arrival, f.Deadline = rec.Task, rec.Flows[i].Label, rec.Time, rec.Deadline
			t.Flows = append(t.Flows, f.Flow)
		}
	case KindReplan:
		rs := *rec.Replan
		rs.Seq = len(r.tree.Replans) + 1
		r.tree.Replans = append(r.tree.Replans, rs)
	case KindPreempt:
		r.task(rec.Task).PreemptedBy = rec.By
	case KindAttr:
		r.task(rec.Task).Blocks = rec.Blocks
	case KindTaskEnd:
		t := r.task(rec.Task)
		t.End, t.Outcome, t.Reason = rec.Time, rec.Outcome, rec.Reason
	case KindFlowEnd:
		f := r.flow(rec.Flow)
		f.End, f.Ended, f.Done, f.OnTime, f.Note = rec.Time, true, rec.Done, rec.OnTime, rec.Reason
	case KindSegments:
		r.flow(rec.Flow).Segments = rec.Segments
	case KindLinkDown:
		r.tree.LinkDowns = append(r.tree.LinkDowns, span.LinkDown{Time: rec.Time, Link: rec.Link})
	case KindMeta:
		r.tree.LinkNames = rec.Meta.LinkNames
	case KindAdmit, KindReject, KindCommit:
	}
}

// task returns the span of a task, opening it on first sight. The pointer
// is good until the next task opens.
func (r *Replayer) task(id int64) *span.TaskSpan {
	i, ok := r.taskAt[id]
	if !ok {
		i = len(r.tree.Tasks)
		r.taskAt[id] = i
		r.tree.Tasks = append(r.tree.Tasks, span.TaskSpan{Task: id, PreemptedBy: span.NoTask})
	}
	return &r.tree.Tasks[i]
}

// flow returns the span of a flow, opening it on first sight. The pointer
// is good until the next flow opens.
func (r *Replayer) flow(id int64) *span.FlowSpan {
	i, ok := r.flowAt[id]
	if !ok {
		i = len(r.tree.Flows)
		r.flowAt[id] = i
		r.tree.Flows = append(r.tree.Flows, span.FlowSpan{Flow: id, Task: span.NoTask})
	}
	return &r.tree.Flows[i]
}

func (r *Replayer) clipSegments(segs []span.Segment) []span.Segment {
	out := make([]span.Segment, 0, len(segs))
	for _, s := range segs {
		if s.Interval.Start >= r.until {
			continue
		}
		if s.Interval.End > r.until {
			s.Interval.End = r.until
		}
		out = append(out, s)
	}
	return out
}

func (r *Replayer) dropTask(task int64) {
	for _, id := range r.taskFlows[task] {
		delete(r.flows, id)
	}
	delete(r.taskFlows, task)
}

// applyCommit installs the most recent planning pass as plan state:
// slices and occupancy are rebuilt from this pass alone — every routed
// flow contributes, missed ones included — then garbage-collected up to
// the decision instant.
func (r *Replayer) applyCommit(now simtime.Time) {
	if r.lastReplan == nil {
		return
	}
	plans := r.lastReplan.Plans
	slices := make(map[int64]simtime.IntervalSet, len(plans))
	occ := make(map[int32]simtime.IntervalSet)
	for i := range plans {
		p := &plans[i]
		if p.Path == nil {
			continue
		}
		grant := simtime.NewIntervalSet(p.Slices...)
		slices[p.Flow] = grant
		for _, l := range p.Path {
			set := occ[l]
			set.UnionInPlace(&grant)
			occ[l] = set
		}
	}
	for l, set := range occ {
		set.GCBefore(now)
		occ[l] = set
	}
	r.slices = slices
	r.occ = occ
	// The pass is installed whole: an unfinished flow holds exactly what
	// this pass gave it, nothing if the pass left it out. The time its
	// superseded grant had already carried is kept.
	for _, f := range r.flows {
		if !f.Done {
			f.supersede(now)
		}
	}
	for i := range plans {
		p := &plans[i]
		f := r.flows[p.Flow]
		if p.Path == nil || f == nil {
			continue
		}
		f.Path = append([]int32(nil), p.Path...)
		f.Slices = simtime.NewIntervalSet(p.Slices...)
	}
}

// supersede takes the flow's grant away at now, noting what it carried.
func (f *FlowState) supersede(now simtime.Time) {
	if t := f.Slices.OverlapTotal(simtime.Interval{Start: 0, End: now}); t > 0 {
		f.Sent = append(f.Sent, SentGrant{Path: f.Path, Time: t})
	}
	f.Path, f.Slices = nil, simtime.IntervalSet{}
}

// Tree returns the span forest folded so far. It is the replayer's own:
// records applied later extend it in place.
func (r *Replayer) Tree() *span.Tree { return &r.tree }

// Meta returns the log's identity record, or nil if none was seen.
func (r *Replayer) Meta() *Meta { return r.meta }

// Slices is the reconstructed per-flow grant table (core commit state).
func (r *Replayer) Slices() map[int64]simtime.IntervalSet { return r.slices }

// Occupancy is the reconstructed per-link busy calendar (core commit
// state).
func (r *Replayer) Occupancy() map[int32]simtime.IntervalSet { return r.occ }

// Flows is the reconstructed in-flight flow table. Flows of rejected or
// preempted tasks have been dropped, mirroring the live controller.
func (r *Replayer) Flows() map[int64]*FlowState { return r.flows }

// TaskFlows maps each live task to its flow IDs in arrival order.
func (r *Replayer) TaskFlows() map[int64][]int64 { return r.taskFlows }

// Accepted reports whether task was admitted (and not later dropped).
func (r *Replayer) Accepted(task int64) bool { return r.accepted[task] }

// AcceptedSet exposes the accepted-task table for recovery.
func (r *Replayer) AcceptedSet() map[int64]bool { return r.accepted }

// DecidedSet exposes the decided-task table for recovery.
func (r *Replayer) DecidedSet() map[int64]bool { return r.decided }

// Applied returns how many records have been folded (post-cutoff records
// excluded).
func (r *Replayer) Applied() int { return r.applied }
