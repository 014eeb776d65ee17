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
	"time"

	"taps/internal/obs"
	"taps/internal/obs/declog"
	"taps/internal/obs/span"
	"taps/internal/sched"
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
	// FastAdmission enables an incremental admission fast path: a new
	// task is first planned append-only into the idle time left by the
	// existing (untouched) plan; only when that fails does the
	// controller fall back to Alg. 1's full global re-plan. This cuts
	// the per-arrival cost from O(all flows) to O(new flows) in the
	// common case. It is an extension beyond the paper: accepted sets
	// can differ slightly from the always-replan baseline, because the
	// full re-plan may rearrange earlier flows where the fast path just
	// appends (see the ablation benchmarks).
	FastAdmission bool
	// BatchWindow is Alg. 1's "wait time T": a newly arrived task is
	// held for up to this long so that tasks arriving close together are
	// decided in one planning pass (fewer global re-plans). Zero decides
	// every task immediately, which is what the evaluation uses — in the
	// simulated workloads all flows of a task arrive together, so T only
	// matters across tasks.
	BatchWindow simtime.Time
	// Incremental enables the delta planner: arrival passes re-plan only
	// the dirty set (flows whose inputs provably changed) and re-emit
	// validated allocations for the rest, falling back to the full
	// re-plan when the dirty set exceeds IncrementalMaxDirtyFrac or a
	// link failure invalidates the occupancy index. Plans are
	// bit-identical to the full re-plan (property-tested); off by
	// default.
	Incremental bool
	// IncrementalMaxDirtyFrac is the dirty-set fraction above which an
	// incremental pass aborts into the full re-plan. <= 0 selects
	// DefaultMaxDirtyFrac.
	IncrementalMaxDirtyFrac float64
}

// DefaultConfig is the configuration used throughout the paper's
// experiments.
func DefaultConfig() Config { return Config{MaxPaths: 16} }

// Scheduler is the TAPS planner; it implements sim.Scheduler.
// Use New — the zero value is not usable.
type Scheduler struct {
	cfg     Config
	planner *Planner // created lazily from the first arrival's state

	// delta, when Config.Incremental is set, carries per-flow allocation
	// records and the per-link occupancy generation index between
	// planning passes (see delta.go). Nil keeps the historical
	// full-replan path untouched.
	delta *DeltaPlanner

	// plan state, rebuilt on every task arrival
	slices map[sim.FlowID]simtime.IntervalSet
	occ    map[topology.LinkID]simtime.IntervalSet

	// rc caches per-flow transmit state, dense-indexed by FlowID and
	// validated against gen: commit bumps gen, invalidating every entry in
	// O(1); fast admission stamps just the new flows. Each entry holds the
	// flow's path line rate frozen at commit time (so Rates stops
	// recomputing Graph().MinCapacity every tick) and the transmit state
	// memoized between slice boundaries: the state computed at time t is
	// exact for every instant in [t, validUntil).
	rc  []flowRateState
	gen uint32

	discarded map[sim.TaskID]bool

	// flowBuf and rates are Rates-call scratch, reused tick after tick.
	flowBuf []*sim.Flow
	rates   sim.RateMap

	// Alg. 1 batching: tasks waiting for the window to close.
	pending []sim.TaskID
	flushAt simtime.Time

	// stats
	replans    int
	fastAdmits int

	// obs, when non-nil, records decision events and planner latency.
	// The nil default keeps the planning path free of timing calls.
	obs *obs.Recorder

	// spans, when non-nil, records the causal decision chain of every
	// planning pass: per-flow candidate/path/slice detail, attribution
	// chains for rejections, and preemption edges. Nil (the default)
	// keeps the hot path allocation-free — every span construction below
	// is guarded behind it.
	spans *span.Recorder

	// declog, when non-nil, appends every decision to the durable flight
	// recorder: planning passes, commit markers (with their merge
	// semantics), admits, rejects, preemptions, attribution chains. The
	// log alone reconstructs this scheduler's slices/occ plan state.
	declog *declog.Writer

	// onCommit, when non-nil, fires after every plan-state installation
	// (full commit or fast-admission merge). Test hook for the replay
	// determinism property.
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

// New returns a TAPS scheduler with the given configuration.
func New(cfg Config) *Scheduler {
	return &Scheduler{
		cfg:       cfg,
		slices:    make(map[sim.FlowID]simtime.IntervalSet),
		occ:       make(map[topology.LinkID]simtime.IntervalSet),
		gen:       1,
		discarded: make(map[sim.TaskID]bool),
	}
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
func (s *Scheduler) Replans() int { return s.replans }

// FastAdmits returns how many tasks the FastAdmission fast path accepted
// without a global re-plan.
func (s *Scheduler) FastAdmits() int { return s.fastAdmits }

// SetRecorder attaches an observability recorder: every admit, reject,
// preempt, re-plan and fast-admit decision is recorded, with wall-clock
// planning latency. A nil recorder (the default) disables recording and
// restores the uninstrumented hot path.
func (s *Scheduler) SetRecorder(r *obs.Recorder) { s.obs = r }

// SetSpanRecorder attaches a causal span recorder: every planning pass is
// recorded with its per-flow plans (candidates, winning path, granted
// slices, planned finish), rejections and preemptions carry attribution
// chains naming the blocking links and their holders. A nil recorder (the
// default) disables recording with zero cost on the planning path.
func (s *Scheduler) SetSpanRecorder(r *span.Recorder) { s.spans = r }

// SetDecisionLog attaches the durable decision log (flight recorder):
// every planning pass, commit, admit, reject and preemption is appended as
// a CRC-framed record, from which a Replayer reconstructs the plan state
// bit-identically. A nil writer (the default) disables logging with zero
// cost on the planning path.
func (s *Scheduler) SetDecisionLog(w *declog.Writer) { s.declog = w }

// Slices returns the planned transmission slices of a flow (for tests and
// the SDN control plane, which ships them to senders).
func (s *Scheduler) Slices(id sim.FlowID) simtime.IntervalSet { return s.slices[id] }

func (s *Scheduler) less(a, b *sim.Flow) bool {
	switch s.cfg.Ordering {
	case OrderEDF:
		return sched.EDFLess(a, b)
	case OrderSJF:
		return sched.SJFLess(a, b)
	default: //taps:allow kindexhaustive the zero value OrderEDFSJF is the documented fallback; new orderings must route here explicitly
		return sched.EDFSJFLess(a, b)
	}
}

// allocation is the tentative outcome of one PathCalculation pass.
type allocation struct {
	slices map[sim.FlowID]simtime.IntervalSet
	paths  map[sim.FlowID]topology.Path
	occ    map[topology.LinkID]simtime.IntervalSet
	finish map[sim.FlowID]simtime.Time
	missed []*sim.Flow // flows whose planned finish exceeds their deadline
}

// planAll runs Alg. 2 (via the Planner) over the given flows, already
// sorted by priority, and classifies misses. kind and trigger describe the
// pass for span tracing (which task arrival / discard / failure caused it).
func (s *Scheduler) planAll(st *sim.State, flows []*sim.Flow, kind span.ReplanKind, trigger int64) *allocation {
	s.ensurePlanner(st)
	reqs := make([]FlowReq, len(flows))
	for i, f := range flows {
		reqs[i] = FlowReq{
			Key:      uint64(f.ID),
			Src:      f.Src,
			Dst:      f.Dst,
			Bytes:    f.Remaining(),
			Deadline: f.Deadline,
		}
	}
	var t0 time.Time
	var p0 int64
	if s.obs != nil || s.spans != nil || s.declog != nil {
		p0 = s.planner.PathsTried()
	}
	if s.obs != nil {
		t0 = time.Now() //taps:allow wallclock obs-only planner latency; never feeds simulated time
	}
	occ := make(map[topology.LinkID]simtime.IntervalSet)
	var entries []PlanEntry
	scope := 0
	if s.delta != nil {
		var ds DeltaStats
		ok := false
		tried := s.delta.Records() > 0
		tryDelta := tried
		if tryDelta && kind == span.ReplanArrival && trigger >= 0 {
			// A-priori policy gate: the §IV-B chain walk bounds which tasks
			// the newcomer can affect. When the estimated dirty set already
			// blows the budget, go straight to the full re-plan instead of
			// burning a doomed incremental attempt.
			est := s.dirtySetEstimate(st, st.Task(sim.TaskID(trigger)), flows)
			tryDelta = est <= s.delta.MaxDirty(len(reqs))
		}
		if tryDelta {
			entries, ds, ok = s.delta.PlanAll(st.Now(), reqs, occ)
		}
		if ok {
			kind, scope = span.ReplanIncremental, ds.Replanned
			s.obs.ObserveReplanScope(ds.Replanned, len(reqs))
		} else {
			// occ is untouched by an aborted pass; the full planner
			// starts from it clean.
			entries = s.planner.PlanAll(st.Now(), reqs, occ)
			s.delta.Adopt(reqs, entries)
			if tried {
				// A bootstrap pass (no records to reuse yet) is not a
				// fallback; the counters track reuse that was possible
				// but abandoned.
				s.obs.CountReplanFallback()
				s.obs.ObserveReplanScope(len(reqs), len(reqs))
			}
		}
	} else {
		entries = s.planner.PlanAll(st.Now(), reqs, occ)
	}
	if s.obs != nil {
		s.obs.Record(obs.Event{
			Time:       st.Now(),
			Kind:       obs.KindReplan,
			Task:       obs.NoTask,
			Flows:      int32(len(flows)),
			PathsTried: s.planner.PathsTried() - p0,
			Duration:   time.Since(t0), //taps:allow wallclock obs-only planner latency
		})
	}
	if s.spans != nil || s.declog != nil {
		rs := span.ReplanSpan{
			Time: st.Now(), Kind: kind, Trigger: trigger,
			Flows: len(flows), PathsTried: s.planner.PathsTried() - p0,
			Scope: scope, Plans: spanPlans(flows, entries),
		}
		s.declog.Replan(st.Now(), rs)
		s.spans.Replan(rs)
	}
	a := &allocation{
		slices: make(map[sim.FlowID]simtime.IntervalSet, len(flows)),
		paths:  make(map[sim.FlowID]topology.Path, len(flows)),
		occ:    occ,
		finish: make(map[sim.FlowID]simtime.Time, len(flows)),
	}
	for i, f := range flows {
		e := entries[i]
		a.finish[f.ID] = e.Finish
		if e.Path == nil {
			// Unroutable (or zero-byte, which never reaches here for
			// active flows): the reject rule treats it as a miss.
			a.missed = append(a.missed, f)
			continue
		}
		a.paths[f.ID] = e.Path
		a.slices[f.ID] = e.Slices
		if e.Finish > f.Deadline {
			a.missed = append(a.missed, f)
		}
	}
	return a
}

// OnTaskArrival implements Alg. 1. With a BatchWindow the task is parked
// until the window closes (the "wait time T" of Alg. 1 line 7); otherwise
// it is decided immediately: sort all in-flight flows plus the new task's
// flows, tentatively plan everything, then apply the reject rule.
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

// flushPending decides every batched task, in arrival order, sharing the
// replans that each decision triggers.
func (s *Scheduler) flushPending(st *sim.State) {
	pending := s.pending
	s.pending = nil
	for _, id := range pending {
		s.decide(st, st.Task(id))
	}
}

// decide runs one task through planning and the reject rule.
func (s *Scheduler) decide(st *sim.State, task *sim.Task) {
	if s.discarded[task.ID] {
		st.KillTask(task.ID, "taps: previously discarded")
		return
	}
	if s.cfg.FastAdmission && s.admitIncrementally(st, task) {
		s.declog.Admit(st.Now(), int64(task.ID), true)
		if s.obs != nil {
			s.obs.Record(obs.Event{Time: st.Now(), Kind: obs.KindTaskAdmitted,
				Task: int64(task.ID), Reason: "fast-admission"})
		}
		return
	}
	flows := st.ActiveFlows() // includes the new task's flows
	sched.SortFlows(flows, s.less)
	s.replans++
	plan := s.planAll(st, flows, span.ReplanArrival, int64(task.ID))

	accepted := true
	if !s.cfg.DisableRejectRule {
		victim, ok := s.applyRejectRule(st, task, plan)
		if !ok {
			// The new task is discarded; re-plan without it.
			accepted = false
			if s.spans != nil || s.declog != nil {
				blocks := s.buildAttribution(st, task.ID, plan)
				s.declog.Attribute(st.Now(), int64(task.ID), blocks)
				s.spans.Attribute(int64(task.ID), blocks)
			}
			s.declog.Reject(st.Now(), int64(task.ID), "taps: task discarded by reject rule")
			s.discardTask(st, task.ID, false)
			plan = s.replanActive(st, span.ReplanPostReject, int64(task.ID))
		} else if victim >= 0 {
			// An existing task is preempted in favor of the newcomer.
			if s.spans != nil || s.declog != nil {
				s.declog.Preempt(st.Now(), int64(victim), int64(task.ID),
					st.TaskCompletionFraction(victim), "taps: task preempted by reject rule")
				s.spans.PreemptedBy(int64(victim), int64(task.ID))
				blocks := s.buildAttribution(st, victim, plan)
				s.declog.Attribute(st.Now(), int64(victim), blocks)
				s.spans.Attribute(int64(victim), blocks)
			}
			s.discardTask(st, victim, true)
			plan = s.replanActive(st, span.ReplanPostPreempt, int64(victim))
		}
	}
	s.commit(st, plan)
	if accepted {
		s.declog.Admit(st.Now(), int64(task.ID), false)
	}
	if accepted && s.obs != nil {
		s.obs.Record(obs.Event{Time: st.Now(), Kind: obs.KindTaskAdmitted,
			Task: int64(task.ID)})
	}
}

// admitIncrementally tries the FastAdmission append-only path: plan just
// the new task's flows into the current occupancy. On success the existing
// plan stays untouched and the new slices are committed; on any miss it
// reports false and the caller falls back to the full re-plan.
func (s *Scheduler) ensurePlanner(st *sim.State) {
	if s.planner == nil {
		s.planner = &Planner{Graph: st.Graph(), Routing: st.Routing(), MaxPaths: s.cfg.MaxPaths}
		if s.cfg.Incremental {
			s.delta = NewDeltaPlanner(s.planner, s.cfg.IncrementalMaxDirtyFrac)
		}
	}
}

func (s *Scheduler) admitIncrementally(st *sim.State, task *sim.Task) bool {
	s.ensurePlanner(st)
	var flows []*sim.Flow
	for _, fid := range task.Flows {
		f := st.Flow(fid)
		if f.State == sim.FlowActive {
			flows = append(flows, f)
		}
	}
	sched.SortFlows(flows, s.less)
	reqs := make([]FlowReq, len(flows))
	for i, f := range flows {
		reqs[i] = FlowReq{Key: uint64(f.ID), Src: f.Src, Dst: f.Dst,
			Bytes: f.Remaining(), Deadline: f.Deadline}
	}
	var t0 time.Time
	var p0 int64
	if s.obs != nil || s.spans != nil {
		p0 = s.planner.PathsTried()
	}
	if s.obs != nil {
		t0 = time.Now() //taps:allow wallclock obs-only planner latency; never feeds simulated time
	}
	// Copy-on-write: the pass reads s.occ directly and clones only the
	// links a winning path claims, so a failed attempt costs no copies
	// and has no side effects.
	entries, touched := s.planner.PlanAllCOW(st.Now(), reqs, s.occ)
	for i, e := range entries {
		if e.Path == nil || e.Finish > reqs[i].Deadline {
			return false
		}
	}
	s.fastAdmits++
	if s.obs != nil {
		s.obs.Record(obs.Event{
			Time:       st.Now(),
			Kind:       obs.KindFastAdmit,
			Task:       int64(task.ID),
			Flows:      int32(len(flows)),
			PathsTried: s.planner.PathsTried() - p0,
			Duration:   time.Since(t0), //taps:allow wallclock obs-only planner latency
		})
	}
	if s.spans != nil || s.declog != nil {
		rs := span.ReplanSpan{
			Time: st.Now(), Kind: span.ReplanFastAdmit, Trigger: int64(task.ID),
			Flows: len(flows), PathsTried: s.planner.PathsTried() - p0,
			Plans: spanPlans(flows, entries),
		}
		s.declog.Replan(st.Now(), rs)
		s.spans.Replan(rs)
	}
	now := st.Now()
	g := st.Graph()
	for i, f := range flows {
		f.Path = entries[i].Path
		s.slices[f.ID] = entries[i].Slices
		// Only the new flows' slices changed; every other flow's cached
		// rate state stays exact. validUntil = now forces the first Rates
		// lookup to recompute the new flow's transmit state.
		c := s.cacheEntry(f.ID)
		*c = flowRateState{lrGen: s.gen, rateGen: s.gen,
			linerate: g.MinCapacity(f.Path), validUntil: now}
	}
	for l, set := range touched {
		set.GCBefore(now)
		s.occ[l] = set
	}
	s.declog.Commit(now, declog.CommitMerge)
	if s.onCommit != nil {
		s.onCommit(st)
	}
	return true
}

// applyRejectRule evaluates §IV-B. It returns (victim, accepted):
// accepted=false means the new task must be discarded; victim >= 0 names an
// existing task to preempt.
func (s *Scheduler) applyRejectRule(st *sim.State, task *sim.Task, plan *allocation) (sim.TaskID, bool) {
	missTasks := make(map[sim.TaskID]bool)
	for _, f := range plan.missed {
		missTasks[f.Task] = true
	}
	d, victim := EvaluateRejectRule(missTasks, task.ID,
		st.TaskCompletionFraction, s.cfg.NoPreemption)
	switch d {
	case RejectNew:
		return -1, false
	case Preempt:
		return victim, true
	case Accept:
		return -1, true
	}
	return -1, true
}

// discardTask kills a task's flows and remembers the decision. preempted
// distinguishes an admitted victim sacrificed for a newcomer from a
// rejected newcomer — the engine dispatches the matching hook and event.
func (s *Scheduler) discardTask(st *sim.State, id sim.TaskID, preempted bool) {
	s.discarded[id] = true
	if s.delta != nil {
		// Preempt/KillTask bypass OnFlowFinished, so revoke every flow of
		// the doomed task here.
		if task := st.Task(id); task != nil {
			for _, fid := range task.Flows {
				s.delta.Revoke(st.Now(), uint64(fid))
			}
		}
	}
	if preempted {
		st.PreemptTask(id, "taps: task preempted by reject rule")
	} else {
		st.KillTask(id, "taps: task discarded by reject rule")
	}
}

// replanActive re-runs PathCalculation over the surviving active flows.
func (s *Scheduler) replanActive(st *sim.State, kind span.ReplanKind, trigger int64) *allocation {
	flows := st.ActiveFlows()
	sched.SortFlows(flows, s.less)
	s.replans++
	return s.planAll(st, flows, kind, trigger)
}

// commit installs a tentative plan as the controller state: per-flow
// slices and routes, per-link occupancy. Occupancy is GC'd up to now so the
// per-link sets stop accumulating dead history (allocation never looks
// before now), and the Rates caches are rebuilt for the new plan.
func (s *Scheduler) commit(st *sim.State, plan *allocation) {
	now := st.Now()
	s.slices = plan.slices
	s.occ = plan.occ
	for l, set := range s.occ {
		set.GCBefore(now)
		s.occ[l] = set
	}
	g := st.Graph()
	s.gen++ // invalidates every cached per-flow rate state at once
	for id, p := range plan.paths {
		st.Flow(id).Path = p
		c := s.cacheEntry(id)
		c.lrGen, c.linerate = s.gen, g.MinCapacity(p)
	}
	s.declog.Commit(now, declog.CommitReplace)
	if s.onCommit != nil {
		s.onCommit(st)
	}
}

// OnFlowFinished implements sim.Scheduler (plan already accounts for it);
// the delta planner drops the flow's record so its slices free up for
// later incremental passes.
func (s *Scheduler) OnFlowFinished(st *sim.State, f *sim.Flow) {
	if s.delta != nil {
		s.delta.Revoke(st.Now(), uint64(f.ID))
	}
}

// OnTaskRejected implements sim.Scheduler. The decision originates here
// (discardTask), so there is nothing left to react to.
func (s *Scheduler) OnTaskRejected(st *sim.State, task *sim.Task) {}

// OnTaskPreempted implements sim.Scheduler; see OnTaskRejected.
func (s *Scheduler) OnTaskPreempted(st *sim.State, task *sim.Task) {}

// OnDeadlineMissed kills a flow the plan failed to protect. With the
// reject rule enabled this only happens for flows of tasks the rule chose
// to sacrifice mid-flight; with it disabled (ablation) it is the norm.
func (s *Scheduler) OnDeadlineMissed(st *sim.State, f *sim.Flow) {
	if s.delta != nil {
		// Kills bypass OnFlowFinished, so revoke here.
		s.delta.Revoke(st.Now(), uint64(f.ID))
	}
	st.KillFlow(f, "taps: deadline missed")
}

// OnLinkDown re-plans every surviving flow: the engine's routing now
// excludes the dead link, so the planner routes around it, re-packing
// slices onto the remaining capacity.
func (s *Scheduler) OnLinkDown(st *sim.State, link topology.LinkID) {
	if s.delta != nil {
		// Routing changed under us: every cached path and candidate-link
		// set may now cross the dead link. Start over from a full plan.
		s.delta.Invalidate()
	}
	s.commit(st, s.replanActive(st, span.ReplanRecovery, span.NoTask))
}

// Rates implements sim.Scheduler: a flow transmits at line rate during its
// pre-allocated slices and is silent otherwise. The horizon is the next
// slice boundary of any active flow.
//
// Per-flow transmit state is constant between slice boundaries, so each
// flow's (active, rate, next-boundary) triple is cached until its boundary
// passes: a flow whose cached boundary is still ahead of now — in
// particular one far past the current horizon minimum — is served from the
// cache without re-searching its slice set. The cache is invalidated by
// commit (full re-plan) and per flow by fast admission.
//
//taps:hotpath
func (s *Scheduler) Rates(st *sim.State) (sim.RateMap, simtime.Time) {
	now := st.Now()
	if len(s.pending) > 0 && now >= s.flushAt {
		s.flushPending(st)
	}
	if s.rates == nil {
		s.rates = make(sim.RateMap) //taps:allow hotpathalloc one-time lazy init; cleared and reused every tick thereafter
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
			sl, ok := s.slices[f.ID]
			if !ok {
				continue
			}
			if c.lrGen != s.gen {
				// Planned before this generation but not re-planned by it
				// (cannot happen today: commit stamps every planned flow);
				// recompute defensively.
				c.lrGen, c.linerate = s.gen, st.Graph().MinCapacity(f.Path)
			}
			c.rateGen = s.gen
			c.active = sl.Contains(now)
			c.validUntil = sl.NextBoundaryAfter(now)
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
