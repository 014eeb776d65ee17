package declog

import (
	"taps/internal/obs"
	"taps/internal/obs/span"
)

// Sink is the one emission path of a run: a decision or lifecycle fact is
// reported once, as a Record, and the sink turns it into each of its
// forms — a frame in the durable log, a mutation of the live span tree,
// and a decision counter. The span half is fold, the same function the
// Replayer applies to a record read back from the file, so the tree a log
// replays into is the live tree by construction rather than by paired
// call sites; the counter half is tally, so the counters of a log read
// back equal the live ones.
//
// Any field may be nil; a nil *Sink is a valid sink that is off.
// Emit is as safe for concurrent use as the Writer and Recorders behind it.
type Sink struct {
	Log   *Writer
	Spans *span.Recorder
	Obs   *obs.Recorder
}

// On reports whether anything is listening. Call sites use it to skip
// building a record's payload (plans, chains, labels) when nothing is.
func (s *Sink) On() bool { return s != nil && (s.Log != nil || s.Spans != nil || s.Obs != nil) }

// Emit reports one fact. The log append comes first: should the process
// die between the two steps, the authoritative log already holds what the
// derived tree would have shown (write-ahead). Append errors are sticky on
// the Writer and surface through its Err/Sync/Close.
func (s *Sink) Emit(r *Record) {
	if s == nil {
		return
	}
	s.Log.Append(r)
	fold(s.Spans, r)
	tally(s.Obs, r)
}

// fold applies one record to a span recorder. The recorder takes what the
// record points at (plans, chain, segments) without copying: whoever emits
// or replays a record leaves it alone afterwards. Kinds that change plan
// state only — what the Replayer keeps on top — leave the tree as it is.
func fold(spans *span.Recorder, r *Record) {
	switch r.Kind {
	case KindTask:
		spans.TaskArrived(r.Task, r.Time, r.Deadline)
		for i := range r.Flows {
			spans.FlowArrived(r.Flows[i].ID, r.Task, r.Time, r.Deadline, r.Flows[i].Label)
		}
	case KindReplan:
		spans.Replan(*r.Replan)
	case KindPreempt:
		spans.PreemptedBy(r.Task, r.By)
	case KindAttr:
		spans.Attribute(r.Task, r.Blocks)
	case KindTaskEnd:
		spans.TaskEnded(r.Task, r.Time, r.Outcome, r.Reason)
	case KindFlowEnd:
		spans.FlowEnded(r.Flow, r.Time, r.Done, r.OnTime, r.Reason)
	case KindSegments:
		spans.ImportSegments(r.Flow, r.Segments)
	case KindLinkDown:
		spans.LinkWentDown(r.Link, r.Time)
	case KindMeta, KindAdmit, KindReject, KindCommit:
	}
}

// tally counts the decisions among the records: admissions, planning
// passes and link failures by their own kinds; rejections and preemptions
// by the terminal record every scheduler's discarded task gets (KindReject
// and KindPreempt are TAPS's alone); and, as a deadline miss, every flow
// that ended without delivering by its deadline — late, or killed.
func tally(rec *obs.Recorder, r *Record) {
	if rec == nil {
		return
	}
	switch r.Kind {
	case KindAdmit:
		rec.Tally(obs.KindTaskAdmitted)
	case KindReplan:
		rec.Tally(obs.KindReplan)
	case KindLinkDown:
		rec.Tally(obs.KindLinkDown)
	case KindTaskEnd:
		switch r.Outcome {
		case span.OutcomeRejected:
			rec.Tally(obs.KindTaskRejected)
		case span.OutcomePreempted:
			rec.Tally(obs.KindTaskPreempted)
		case span.OutcomeRunning, span.OutcomeCompleted, span.OutcomeKilled:
		}
	case KindFlowEnd:
		if !r.OnTime {
			rec.Tally(obs.KindDeadlineMissed)
		}
	case KindMeta, KindTask, KindReject, KindPreempt, KindAttr, KindSegments, KindCommit:
	}
}
