// Package obs is the controller observability layer: a low-overhead
// structured event recorder for scheduler decisions (admit, reject,
// preempt, re-plan, deadline miss, link down), wall-clock
// planner-latency histograms, and per-link utilization gauges.
//
// Design constraints (see DESIGN.md "Observability"):
//
//   - Nil-safe: every method on a nil *Recorder is a no-op, so call sites
//     in the planning hot path need no conditionals of their own.
//   - Zero-alloc append: Record writes the event by value into a
//     preallocated ring slot; neither the disabled (nil) nor the enabled
//     path allocates (verified by AllocsPerRun tests).
//   - Race-safe: one Recorder may be shared by the simulation engine, the
//     networked controller's connection goroutines, and HTTP exporters.
//
// Exporters (export.go) turn the recorded state into a JSONL event log,
// Prometheus text exposition, and a human decision/latency summary.
package obs

import (
	"sync"
	"time"

	"taps/internal/simtime"
)

// Kind classifies one recorded event.
type Kind uint8

// Event kinds. The taxonomy mirrors the controller decisions of §IV-B
// plus the runtime signals the engine observes.
const (
	// KindTaskAdmitted: the controller accepted Task into the plan.
	KindTaskAdmitted Kind = iota
	// KindTaskRejected: Task was discarded before admission (reject rule,
	// or an explicit scheduler kill); Reason holds the kill note.
	KindTaskRejected
	// KindTaskPreempted: the already-admitted Task was sacrificed for a
	// newcomer; Fraction is its byte-completion fraction at preemption.
	KindTaskPreempted
	// KindReplan: one global planning pass; Flows is the number of flows
	// placed, Duration the wall-clock latency, PathsTried the candidate
	// paths examined.
	KindReplan
	// KindDeadlineMissed: active Flow of Task passed its deadline.
	KindDeadlineMissed
	// KindLinkDown: Link failed.
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

// Event is one recorded occurrence. Which fields are meaningful depends
// on Kind (see the kind constants); unused numeric fields are left at
// their zero or NoTask values.
type Event struct {
	Seq  uint64       // 1-based monotonic sequence, assigned by Record
	Time simtime.Time // virtual time, µs
	Kind Kind

	Task       int64         // subject task (NoTask when not applicable)
	Flow       int64         // subject flow (DeadlineMissed)
	Link       int32         // subject link (LinkDown)
	Flows      int32         // flows planned (Replan)
	PathsTried int64         // candidate paths examined (Replan)
	Duration   time.Duration // wall-clock planner latency (Replan)
	Fraction   float64       // completion fraction (TaskPreempted)
	Reason     string        // kill note / decision reason
}

// NoTask marks the Task field of events that concern no particular task
// (Replan, LinkDown). Real task IDs are non-negative in both the
// simulator and the networked controller's recommended usage.
const NoTask int64 = -1

// LinkStat aggregates the utilization samples of one link.
type LinkStat struct {
	// Peak is the highest sampled utilization (0..1).
	Peak float64
	// UtilTime is the integral of utilization over time, in µs; divide by
	// the observation window for the mean utilization.
	UtilTime float64
	// BusyTime is the total time the link carried any traffic, in µs.
	BusyTime simtime.Time
	// Samples counts the integration intervals observed.
	Samples uint64
}

// Options tunes a Recorder.
type Options struct {
	// Capacity is the event ring size (default 8192). Older events are
	// overwritten once the ring is full; sinks still see every event.
	Capacity int
}

// Recorder collects events, planner latencies, and link gauges. Create
// with NewRecorder; a nil *Recorder is a valid disabled recorder.
type Recorder struct {
	mu            sync.Mutex
	planner       Histogram // replan wall-clock latency
	declogSync    Histogram // decision-log fsync wall-clock latency
	ring          []Event
	seq           uint64
	counts        [kindCount]uint64
	links         []LinkStat
	sinks         []func(Event)
	declogRecords uint64
	declogBytes   uint64
	declogTruncs  uint64
}

// NewRecorder returns an enabled recorder.
func NewRecorder(opts Options) *Recorder {
	c := opts.Capacity
	if c <= 0 {
		c = 8192
	}
	return &Recorder{ring: make([]Event, c)}
}

// Enabled reports whether the recorder records anything.
func (r *Recorder) Enabled() bool { return r != nil }

// Record appends one event, stamps its sequence number, and forwards it
// to any sinks. Replan durations also feed the planner latency
// histogram. No-op on a nil recorder; allocation-free.
func (r *Recorder) Record(ev Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if ev.Kind == KindReplan {
		r.planner.Observe(ev.Duration)
	}
	r.seq++
	ev.Seq = r.seq
	r.ring[int((r.seq-1)%uint64(len(r.ring)))] = ev
	if int(ev.Kind) < len(r.counts) {
		r.counts[ev.Kind]++
	}
	sinks := r.sinks
	r.mu.Unlock()
	for _, fn := range sinks {
		fn(ev)
	}
}

// ObservePlanner records a planner latency sample without an event (used
// by the baseline-scheduler wrapper to time Rates computations, keeping
// all schedulers comparable on one histogram). No-op on nil.
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

// AddSink registers fn to receive every subsequent event, synchronously,
// outside the recorder lock. Sinks must not call back into the recorder.
func (r *Recorder) AddSink(fn func(Event)) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	// Copy-on-write so Record can read the slice outside the lock.
	sinks := make([]func(Event), len(r.sinks)+1)
	copy(sinks, r.sinks)
	sinks[len(sinks)-1] = fn
	r.sinks = sinks
	r.mu.Unlock()
}

// Count returns how many events of the kind were recorded.
func (r *Recorder) Count(k Kind) uint64 {
	if r == nil || int(k) >= int(kindCount) {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[k]
}

// Seq returns the sequence number of the latest event (0 when empty).
func (r *Recorder) Seq() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Events returns the recorded events with Seq > since that are still in
// the ring, oldest first, capped at limit (0: no cap). The ring keeps the
// most recent Capacity events; earlier ones are only visible to sinks.
func (r *Recorder) Events(since uint64, limit int) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	first := since + 1
	if n := uint64(len(r.ring)); r.seq > n && first < r.seq-n+1 {
		first = r.seq - n + 1
	}
	if first > r.seq {
		return nil
	}
	n := int(r.seq - first + 1)
	if limit > 0 && n > limit {
		n = limit
	}
	out := make([]Event, n)
	for i := range out {
		out[i] = r.ring[int((first+uint64(i)-1)%uint64(len(r.ring)))]
	}
	return out
}

// EnsureLinks preallocates gauge slots for links [0, n). Call once at
// startup so SampleLink stays allocation-free.
func (r *Recorder) EnsureLinks(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.mu.Lock()
	if n > len(r.links) {
		grown := make([]LinkStat, n)
		copy(grown, r.links)
		r.links = grown
	}
	r.mu.Unlock()
}

// SampleLink folds one utilization observation (util in 0..1 sustained
// for dt µs) into the link's gauge. Links beyond the EnsureLinks range
// grow the gauge table (allocating); negative links are ignored.
func (r *Recorder) SampleLink(link int32, util float64, dt simtime.Time) {
	if r == nil || link < 0 || dt <= 0 {
		return
	}
	r.mu.Lock()
	if int(link) >= len(r.links) {
		grown := make([]LinkStat, link+1)
		copy(grown, r.links)
		r.links = grown
	}
	s := &r.links[link]
	if util > s.Peak {
		s.Peak = util
	}
	s.UtilTime += util * float64(dt)
	if util > 0 {
		s.BusyTime += dt
	}
	s.Samples++
	r.mu.Unlock()
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

// LinkStats returns a snapshot of the per-link gauges, indexed by link ID.
func (r *Recorder) LinkStats() []LinkStat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]LinkStat, len(r.links))
	copy(out, r.links)
	return out
}
