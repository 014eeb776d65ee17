package declog

import (
	"taps/internal/obs"
	"taps/internal/obs/span"
)

// Sink is the one emission path of a run: a decision or lifecycle fact is
// reported once, as a Record, and the sink turns it into each of its
// forms — a frame in the decision log, and a decision counter. The log is
// the only record of the run: a span tree is a replay of it (Replayer),
// never a second store kept alongside. The counter half is tally, so the
// counters of a log read back equal the live ones.
//
// Either field may be nil; a nil *Sink is a valid sink that is off.
// Emit is as safe for concurrent use as the Writer and Recorder behind it.
type Sink struct {
	Log *Writer
	Obs *obs.Recorder
}

// On reports whether anything is listening. Call sites use it to skip
// building a record's payload (plans, chains, labels) when nothing is.
func (s *Sink) On() bool { return s != nil && (s.Log != nil || s.Obs != nil) }

// Emit reports one fact. The log append comes first (write-ahead): should
// the process die between the two steps, the log already holds what the
// counter would have shown. Append errors are sticky on the Writer and
// surface through its Err/Sync/Close.
func (s *Sink) Emit(r *Record) {
	if s == nil {
		return
	}
	s.Log.Append(r)
	tally(s.Obs, r)
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
