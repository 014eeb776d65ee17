package declog

import (
	"taps/internal/obs/span"
	"taps/internal/simtime"
)

// Replayer reconstructs controller state by folding decision records in
// log order. It is the only builder of a span tree, and the tree is all
// it builds: task and flow lifecycles, every planning pass (marked when a
// KindCommit installed it), the attribution chains and transmission
// segments. The plan state — accepted tasks, the flows in play, the
// committed grants and per-link occupancy — is read off the tree (see
// span.Tree.Plan).
//
// SetUntil turns the replayer into a time-travel query: records stamped
// after the cutoff are ignored (segments are clipped), materializing the
// world as of that simulated instant.
type Replayer struct {
	tree    span.Tree
	taskAt  map[int64]int // index into tree.Tasks
	flowAt  map[int64]int // index into tree.Flows
	meta    *Meta
	until   simtime.Time // simtime.Infinity: no cutoff
	applied int
}

// NewReplayer returns an empty replayer.
func NewReplayer() *Replayer {
	return &Replayer{taskAt: make(map[int64]int), flowAt: make(map[int64]int), until: simtime.Infinity}
}

// SetUntil caps replay at simulated instant t: records stamped later are
// skipped and transmission segments are clipped to t. Set it before
// applying records.
func (r *Replayer) SetUntil(t simtime.Time) { r.until = t }

// ApplyAll folds a decoded log.
func (r *Replayer) ApplyAll(recs []Record) {
	for i := range recs {
		r.Apply(&recs[i])
	}
}

// Apply folds one record into the span forest.
func (r *Replayer) Apply(rec *Record) {
	if rec.Time > r.until {
		// Past the cutoff. Segment records are the one exception: they are
		// bulk-imported at end-of-run but describe transmission all the way
		// back to arrival, so they are applied clipped instead of dropped.
		if rec.Kind != KindSegments {
			return
		}
	}
	r.applied++
	if rec.Kind == KindSegments && r.until < simtime.Infinity {
		clipped := *rec
		clipped.Segments = r.clipSegments(rec.Segments)
		rec = &clipped
	}
	r.fold(rec)
}

// fold applies one record to the span forest. The tree takes what the
// record points at (plans, chain, segments) without copying: whoever
// replays a record leaves it alone afterwards. A commit installs the
// latest pass: one decision plans and commits at one instant, so no
// other pass comes between them. A reject leaves the tree as it is: the
// task's terminal record says it was discarded.
func (r *Replayer) fold(rec *Record) {
	switch rec.Kind {
	case KindMeta:
		r.meta = rec.Meta
		r.tree.LinkNames = rec.Meta.LinkNames
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
	case KindCommit:
		if n := len(r.tree.Replans); n > 0 {
			r.tree.Replans[n-1].Committed = true
		}
	case KindAdmit:
		r.task(rec.Task).Admitted = true
	case KindReject:
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

// Tree returns the span forest folded so far. It is the replayer's own:
// records applied later extend it in place.
func (r *Replayer) Tree() *span.Tree { return &r.tree }

// Meta returns the log's identity record, or nil if none was seen.
func (r *Replayer) Meta() *Meta { return r.meta }

// Applied returns how many records have been folded (post-cutoff records
// excluded).
func (r *Replayer) Applied() int { return r.applied }
