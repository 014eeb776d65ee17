// Package obs is the controller observability layer: counters of the
// scheduler's decisions (admit, reject, preempt, re-plan, deadline miss,
// link down), wall-clock planner and decision-log fsync latency
// histograms, and the decision log's health counters.
//
// The decision counters are a tally of the records declog.Sink emits: a
// decision is reported once, as a record, and the sink counts it here.
// Wall-clock durations never enter that record, so the histograms are fed
// directly by whoever holds the stopwatch.
//
// Design constraints (see DESIGN.md "Observability"):
//
//   - Nil-safe: every method on a nil *Recorder is a no-op, so call sites
//     in the planning hot path need no conditionals of their own.
//   - Zero-alloc: neither Tally nor the histogram observers allocate
//     (verified by AllocsPerRun tests).
//   - Race-safe: one Recorder may be shared by the simulation cells, the
//     networked controller's connection goroutines, and HTTP exporters.
//
// Exporters (export.go) turn the recorded state into Prometheus text
// exposition and a human decision/latency summary.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Kind labels one decision counter.
type Kind uint8

// Counter kinds: the controller decisions of §IV-B plus the runtime
// signals the engine observes. declog.Sink maps its record kinds onto them.
const (
	// KindTaskAdmitted: the scheduler accepted a task.
	KindTaskAdmitted Kind = iota
	// KindTaskRejected: a task was discarded before admission.
	KindTaskRejected
	// KindTaskPreempted: an admitted task was sacrificed for a newcomer.
	KindTaskPreempted
	// KindReplan: one global planning pass.
	KindReplan
	// KindDeadlineMissed: a flow ended without delivering by its deadline.
	KindDeadlineMissed
	// KindLinkDown: a link failed.
	KindLinkDown

	kindCount // number of kinds; keep last
)

var kindNames = [kindCount]string{
	"task_admitted",
	"task_rejected",
	"task_preempted",
	"replan",
	"deadline_missed",
	"link_down",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind(?)"
}

// Recorder collects decision counts, latency histograms and decision-log
// health. Create with NewRecorder; a nil *Recorder is a valid disabled
// recorder.
type Recorder struct {
	counts [kindCount]atomic.Uint64

	mu            sync.Mutex
	planner       Histogram // replan wall-clock latency
	declogSync    Histogram // decision-log fsync wall-clock latency
	declogRecords uint64
	declogBytes   uint64
	declogTruncs  uint64
}

// NewRecorder returns an enabled recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Tally counts one decision of kind k. No-op on a nil recorder;
// allocation-free and lock-free.
func (r *Recorder) Tally(k Kind) {
	if r == nil {
		return
	}
	r.counts[k].Add(1)
}

// Count returns how many decisions of the kind were tallied.
func (r *Recorder) Count(k Kind) uint64 {
	if r == nil || k >= kindCount {
		return 0
	}
	return r.counts[k].Load()
}

// ObservePlanner records one planner latency sample: a TAPS planning pass,
// or a baseline scheduler's Rates computation, so all schedulers are
// comparable on one histogram. No-op on nil.
func (r *Recorder) ObservePlanner(d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.planner.Observe(d)
	r.mu.Unlock()
}

// PlannerLatency returns a copy of the planner latency histogram (the
// zero value on a nil recorder).
func (r *Recorder) PlannerLatency() Histogram {
	if r == nil {
		return Histogram{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.planner
}

// DeclogStats aggregates decision-log writer health.
type DeclogStats struct {
	// Records is the total number of records appended.
	Records uint64
	// Bytes is the total framed bytes written (headers included).
	Bytes uint64
	// Truncations counts torn tails discarded on log open — each one is a
	// crash the recovery path absorbed.
	Truncations uint64
}

// DeclogAppended folds one decision-log append (records framed, bytes
// written) into the health counters. No-op on nil.
func (r *Recorder) DeclogAppended(records, bytes int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.declogRecords += uint64(records)
	r.declogBytes += uint64(bytes)
	r.mu.Unlock()
}

// DeclogTruncated counts one torn-tail truncation. No-op on nil.
func (r *Recorder) DeclogTruncated() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.declogTruncs++
	r.mu.Unlock()
}

// DeclogStats returns a snapshot of the decision-log health counters.
func (r *Recorder) DeclogStats() DeclogStats {
	if r == nil {
		return DeclogStats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return DeclogStats{Records: r.declogRecords, Bytes: r.declogBytes, Truncations: r.declogTruncs}
}

// ReplanScope counts the planning passes as what each of them is: a full
// pass that re-planned every flow it was given (Sum and FullFallbacks equal
// Count). The type and its accessor remain for the benchmark harness, whose
// core.delta_* metrics are derived from them.
type ReplanScope struct {
	Sum                  float64
	Count, FullFallbacks uint64
}

// ReplanScopeStats returns the ReplanScope of the passes recorded so far.
func (r *Recorder) ReplanScopeStats() ReplanScope {
	n := r.Count(KindReplan)
	return ReplanScope{Sum: float64(n), Count: n, FullFallbacks: n}
}

// ObserveDeclogSync records one decision-log fsync latency sample. No-op
// on nil.
func (r *Recorder) ObserveDeclogSync(d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.declogSync.Observe(d)
	r.mu.Unlock()
}

// DeclogSyncLatency returns a copy of the decision-log fsync latency
// histogram (the zero value on a nil recorder).
func (r *Recorder) DeclogSyncLatency() Histogram {
	if r == nil {
		return Histogram{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.declogSync
}
