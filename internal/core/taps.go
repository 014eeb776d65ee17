// Package core implements TAPS, the paper's contribution: task-level
// deadline-aware preemptive flow scheduling (§IV).
//
// TAPS runs as a centralized planner (the SDN controller). On every task
// arrival it re-plans all in-flight flows from scratch: flows are ordered
// by EDF with SJF tie-break (Alg. 1), each flow is assigned the candidate
// routing path on which it finishes earliest (Alg. 2, PathCalculation), and
// its transmission is pre-allocated into the earliest idle time slices of
// that path's links (Alg. 3, TimeAllocation). Links carry at most one flow
// at a time, at full line rate.
//
// The reject rule (§IV-B) then decides the new task's fate: if the
// tentative plan misses no deadline the task is accepted; if flows of the
// new task itself, or of more than one task, would miss, the new task is
// discarded; if exactly one *other* task would miss, the task with the
// smaller byte-completion fraction is discarded — which is how TAPS
// preempts an admitted task in favor of a more promising newcomer.
package core

import (
	"taps/internal/obs/declog"
	"taps/internal/obs/span"
	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// Ordering selects the priority discipline used to sort flows before
// allocation. The paper uses EDF+SJF; the others exist for ablations.
type Ordering uint8

// Orderings for Config.Ordering.
const (
	OrderEDFSJF Ordering = iota // paper default
	OrderEDF
	OrderSJF
)

func (o Ordering) String() string {
	switch o {
	case OrderEDFSJF:
		return "edf+sjf"
	case OrderEDF:
		return "edf"
	case OrderSJF:
		return "sjf"
	}
	return "ordering(?)"
}

// Config tunes the TAPS planner.
type Config struct {
	// MaxPaths caps the candidate path set per flow (Alg. 2 line 3);
	// 0 enumerates all equal-cost paths. The default used by the
	// experiments is 16 (see DESIGN.md: path-explosion substitution).
	MaxPaths int
	// Ordering is the flow priority discipline (default EDF+SJF).
	Ordering Ordering
	// DisableRejectRule admits every task unconditionally (ablation).
	DisableRejectRule bool
	// NoPreemption never discards an already-admitted task: when the
	// tentative plan sacrifices an existing task, the newcomer is
	// rejected instead (Varys-like behaviour; ablation).
	NoPreemption bool
	// BatchWindow is Alg. 1's "wait time T": a newly arrived task is
	// held until the window opened by the first parked task closes. It
	// only defers decisions: when the window closes every parked task is
	// still decided in its own planning pass, so the number of passes is
	// unchanged. Zero decides every task immediately, which is what the
	// evaluation uses — in the simulated workloads all flows of a task
	// arrive together, so T only matters across tasks.
	BatchWindow simtime.Time
}

// DefaultConfig is the configuration used throughout the paper's
// experiments.
func DefaultConfig() Config { return Config{MaxPaths: 16} }

// Scheduler is the TAPS planner; it implements sim.Scheduler. It is the
// simulator's adapter around the Kernel: it feeds the engine's events to
// the kernel as inputs, stops the flows the kernel discards, and turns the
// committed plan into transmission rates.
// Use New — the zero value is not usable.
type Scheduler struct {
	cfg   Config
	k     *Kernel
	plane enginePlane

	// rc caches per-flow transmit state, dense-indexed by FlowID and
	// validated against gen: a commit bumps gen, invalidating every entry in
	// O(1). Each entry holds the
	// flow's path line rate frozen at commit time (so Rates stops
	// recomputing Graph().MinCapacity every tick) and the transmit state
	// memoized between slice boundaries: the state computed at time t is
	// exact for every instant in [t, validUntil).
	rc  []flowRateState
	gen uint32

	// flowBuf and rates are Rates-call scratch, reused tick after tick.
	flowBuf []*sim.Flow
	rates   sim.RateMap

	// Alg. 1 batching: tasks waiting for the window to close. The kernel
	// hears of a parked task only when it is decided.
	pending []sim.TaskID
	flushAt simtime.Time

	// onCommit, when non-nil, fires after every plan-state installation.
	// Test hook for the replay determinism property.
	onCommit func(st *sim.State)
}

// flowRateState is one Rates-cache entry: while now < validUntil the flow
// transmits at linerate iff active, and its next plan boundary is
// validUntil. The entry belongs to the plan generation that stamped it;
// rateGen additionally guards the memoized (active, validUntil) pair,
// which expires at slice boundaries while linerate lives for the whole
// plan generation.
type flowRateState struct {
	lrGen      uint32 // linerate valid iff lrGen == Scheduler.gen
	rateGen    uint32 // (active, validUntil) valid iff rateGen == Scheduler.gen
	linerate   float64
	validUntil simtime.Time
	active     bool
}

// enginePlane is the kernel's view of the simulated data plane: the
// engine's kill switches.
type enginePlane struct{ st *sim.State }

// Discard kills the task's flows; the engine dispatches the hook and
// terminal record matching a rejected newcomer or a preempted victim.
func (p *enginePlane) Discard(_ simtime.Time, task, by int64) {
	if by == span.NoTask {
		p.st.KillTask(sim.TaskID(task), reasonRejected)
	} else {
		p.st.PreemptTask(sim.TaskID(task), reasonPreempted)
	}
}

// New returns a TAPS scheduler with the given configuration.
func New(cfg Config) *Scheduler {
	s := &Scheduler{cfg: cfg, gen: 1}
	s.k = newKernel(cfg, &s.plane)
	return s
}

// cacheEntry returns the flow's dense cache slot, growing the backing
// slice on first sight of a new flow ID.
func (s *Scheduler) cacheEntry(id sim.FlowID) *flowRateState {
	if int(id) >= len(s.rc) {
		grown := make([]flowRateState, int(id)+1+len(s.rc))
		copy(grown, s.rc)
		s.rc = grown
	}
	return &s.rc[id]
}

// Name implements sim.Scheduler.
func (s *Scheduler) Name() string { return "TAPS" }

// Replans returns how many global re-plans the controller executed.
func (s *Scheduler) Replans() int { return s.k.Replans() }

// FastAdmits is always 0: every admission is a global re-plan. The method
// stays until the benchmark harness stops reading it.
func (s *Scheduler) FastAdmits() int { return 0 }

// SetSink implements sim.SinkUser: the engine hands over the sink it
// reports the task and flow lifecycle to, and every planning pass (per-flow
// plans: candidates, winning path, granted slices, planned finish), commit,
// admit, reject and preemption with its attribution chain joins it there —
// one complete decision log per run, which replays to the run's span tree. A nil sink (the default)
// leaves the planning path free of recording work.
func (s *Scheduler) SetSink(k *declog.Sink) { s.k.Sink = k }

// Slices returns the planned transmission slices of a flow (for tests).
func (s *Scheduler) Slices(id sim.FlowID) simtime.IntervalSet {
	if f := s.k.Flow(uint64(id)); f != nil {
		return f.Slices
	}
	return simtime.IntervalSet{}
}

// bind points the kernel's data plane at the engine state of the callback
// in progress.
func (s *Scheduler) bind(st *sim.State) {
	s.plane.st = st
	s.k.bind(st.Graph(), st.Routing())
}

// OnTaskArrival implements Alg. 1. With a BatchWindow the task is parked
// until the window closes (the "wait time T" of Alg. 1 line 7); otherwise
// it is decided immediately.
func (s *Scheduler) OnTaskArrival(st *sim.State, task *sim.Task) {
	if s.cfg.BatchWindow > 0 {
		if len(s.pending) == 0 {
			s.flushAt = st.Now() + s.cfg.BatchWindow
		}
		s.pending = append(s.pending, task.ID)
		return
	}
	s.decide(st, task)
}

// flushPending decides every batched task, in arrival order.
func (s *Scheduler) flushPending(st *sim.State) {
	pending := s.pending
	s.pending = nil
	for _, id := range pending {
		s.decide(st, st.Task(id))
	}
}

// decide hands one task to the kernel and takes over the plan it commits.
func (s *Scheduler) decide(st *sim.State, task *sim.Task) {
	s.bind(st)
	specs := make([]FlowSpec, len(task.Flows))
	for i, fid := range task.Flows {
		f := st.Flow(fid)
		specs[i] = FlowSpec{Key: uint64(fid), Src: f.Src, Dst: f.Dst, Size: f.Size}
	}
	s.k.TaskArrived(st.Now(), int64(task.ID), task.Deadline, specs)
	s.installed(st)
}

// installed takes over the pass the kernel just committed: the engine's
// flows get their routes and the Rates caches are rebuilt for the new plan.
func (s *Scheduler) installed(st *sim.State) {
	g := st.Graph()
	s.gen++ // invalidates every cached per-flow rate state at once
	for _, kf := range s.k.Committed() {
		if kf.Path == nil {
			continue
		}
		f := st.Flow(sim.FlowID(kf.Key))
		f.Path = kf.Path
		c := s.cacheEntry(f.ID)
		c.lrGen, c.linerate = s.gen, g.MinCapacity(f.Path)
	}
	if s.onCommit != nil {
		s.onCommit(st)
	}
}

// OnFlowFinished implements sim.Scheduler: the flow's slices free up for
// later passes.
func (s *Scheduler) OnFlowFinished(st *sim.State, f *sim.Flow) {
	s.k.FlowFinished(st.Now(), uint64(f.ID), f.Remaining())
}

// OnTaskRejected implements sim.Scheduler. The decision originates in the
// kernel, so there is nothing left to react to.
func (s *Scheduler) OnTaskRejected(st *sim.State, task *sim.Task) {}

// OnTaskPreempted implements sim.Scheduler; see OnTaskRejected.
func (s *Scheduler) OnTaskPreempted(st *sim.State, task *sim.Task) {}

// OnDeadlineMissed kills a flow the plan failed to protect. With the
// reject rule enabled this only happens for flows of tasks the rule chose
// to sacrifice mid-flight; with it disabled (ablation) it is the norm.
func (s *Scheduler) OnDeadlineMissed(st *sim.State, f *sim.Flow) {
	s.k.FlowFinished(st.Now(), uint64(f.ID), f.Remaining())
	st.KillFlow(f, "taps: deadline missed")
}

// OnLinkDown re-plans every surviving flow: the engine's routing now
// excludes the dead link, so the planner routes around it, re-packing
// slices onto the remaining capacity. The flows the failure disconnected
// the engine has already killed; they go out of flight with what they had
// left.
func (s *Scheduler) OnLinkDown(st *sim.State, link topology.LinkID) {
	s.bind(st)
	s.k.EachInFlight(func(f *Flow) {
		if sf := st.Flow(sim.FlowID(f.Key)); sf.State != sim.FlowActive {
			s.k.FlowFinished(st.Now(), f.Key, sf.Remaining())
		}
	})
	s.k.LinkDown(st.Now())
	s.installed(st)
}

// Rates implements sim.Scheduler: a flow transmits at line rate during its
// pre-allocated slices and is silent otherwise. The horizon is the next
// slice boundary of any active flow.
//
// Per-flow transmit state is constant between slice boundaries, so each
// flow's (active, rate, next-boundary) triple is cached until its boundary
// passes: a flow whose cached boundary is still ahead of now — in
// particular one far past the current horizon minimum — is served from the
// cache without re-searching its slice set. A commit invalidates the cache.
func (s *Scheduler) Rates(st *sim.State) (sim.RateMap, simtime.Time) {
	now := st.Now()
	if len(s.pending) > 0 && now >= s.flushAt {
		s.flushPending(st)
	}
	if s.rates == nil {
		s.rates = make(sim.RateMap) // one-time lazy init; cleared and reused every tick thereafter
	}
	clear(s.rates)
	rates := s.rates
	horizon := simtime.Infinity
	if len(s.pending) > 0 {
		horizon = s.flushAt
	}
	flows := st.AppendActiveFlows(s.flowBuf[:0])
	s.flowBuf = flows[:0]
	for _, f := range flows {
		c := s.cacheEntry(f.ID)
		if c.rateGen != s.gen || now >= c.validUntil {
			kf := s.k.Flow(uint64(f.ID))
			if kf == nil || kf.Path == nil {
				continue
			}
			if c.lrGen != s.gen {
				// Planned before this generation but not re-planned by it
				// (cannot happen today: commit stamps every planned flow);
				// recompute defensively.
				c.lrGen, c.linerate = s.gen, st.Graph().MinCapacity(f.Path)
			}
			c.rateGen = s.gen
			c.active = kf.Slices.Contains(now)
			c.validUntil = kf.Slices.NextBoundaryAfter(now)
		}
		if c.active {
			rates[f.ID] = c.linerate
		}
		if c.validUntil < horizon {
			horizon = c.validUntil
		}
	}
	return rates, horizon
}
