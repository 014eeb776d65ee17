package sim

import (
	"cmp"
	"fmt"
	"slices"

	"taps/internal/obs"
	"taps/internal/obs/declog"
	"taps/internal/obs/span"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// RateMap assigns transmission rates (bytes/second) to flows. Flows absent
// from the map do not transmit.
type RateMap map[FlowID]float64

// Scheduler is the pluggable policy the engine consults. One Scheduler
// value serves one simulation run.
//
// Rates is called at every event instant and returns the rate allocation
// plus a horizon: the earliest future instant at which the allocation must
// be recomputed even if no flow completes, arrives, or expires
// (simtime.Infinity when there is none). TAPS uses the horizon to follow
// pre-allocated time-slice boundaries. The engine only reads the returned
// RateMap until the next Rates call, so a scheduler may clear and reuse
// one map across calls instead of allocating per tick.
//
// OnLinkDown fires after an injected link failure (Config.LinkFailures).
// By the time it runs, the engine has already moved affected flows onto
// surviving ECMP paths (or killed the disconnected ones) and the State's
// Routing excludes the dead link.
//
// OnTaskRejected fires when a whole task is discarded before admission
// (State.KillTask); OnTaskPreempted fires when an already-admitted task is
// sacrificed for a newcomer (State.PreemptTask). Each fires at most once
// per task, after its flows are killed — including when the kill was
// initiated by the scheduler itself, so observers can hook either side.
type Scheduler interface {
	Name() string
	OnTaskArrival(st *State, task *Task)
	OnFlowFinished(st *State, f *Flow)
	OnDeadlineMissed(st *State, f *Flow)
	OnTaskRejected(st *State, task *Task)
	OnTaskPreempted(st *State, task *Task)
	OnLinkDown(st *State, link topology.LinkID)
	Rates(st *State) (RateMap, simtime.Time)
}

// NopHooks provides no-op event hooks for schedulers that only implement
// Rates. Embed it to satisfy Scheduler.
type NopHooks struct{}

// OnTaskArrival implements Scheduler.
func (NopHooks) OnTaskArrival(*State, *Task) {}

// OnFlowFinished implements Scheduler.
func (NopHooks) OnFlowFinished(*State, *Flow) {}

// OnDeadlineMissed implements Scheduler.
func (NopHooks) OnDeadlineMissed(*State, *Flow) {}

// OnTaskRejected implements Scheduler.
func (NopHooks) OnTaskRejected(*State, *Task) {}

// OnTaskPreempted implements Scheduler.
func (NopHooks) OnTaskPreempted(*State, *Task) {}

// OnLinkDown implements Scheduler.
func (NopHooks) OnLinkDown(*State, topology.LinkID) {}

// State is the engine view exposed to schedulers.
type State struct {
	graph   *topology.Graph
	routing topology.Routing
	now     simtime.Time
	flows   []*Flow
	tasks   []*Task
	active  []*Flow // the FlowActive flows, sorted by ID
	dead    map[topology.LinkID]bool

	// onTaskEnd is the engine's kill notifier: it records the task's end
	// and fires the scheduler's OnTaskRejected/OnTaskPreempted hooks, at
	// most once per task.
	onTaskEnd func(t *Task, note string, preempted bool)
}

// IsLinkDead reports whether an injected failure has taken the link down.
func (st *State) IsLinkDead(l topology.LinkID) bool { return st.dead[l] }

// liveRouting filters a Routing's candidate paths down to those avoiding
// dead links. It shares the engine's dead-link set, so failures take
// effect everywhere (default ECMP assignment, TAPS planning) at once.
type liveRouting struct {
	inner topology.Routing
	dead  map[topology.LinkID]bool
}

func (lr *liveRouting) Paths(src, dst topology.NodeID, max int, key uint64) []topology.Path {
	if len(lr.dead) == 0 {
		return lr.inner.Paths(src, dst, max, key)
	}
	all := lr.inner.Paths(src, dst, 0, key)
	alive := make([]topology.Path, 0, len(all))
	for _, p := range all {
		ok := true
		for _, l := range p {
			if lr.dead[l] {
				ok = false
				break
			}
		}
		if ok {
			alive = append(alive, p)
		}
	}
	if max > 0 && max < len(alive) {
		alive = alive[:max]
	}
	return alive
}

// Now returns the current simulation time.
func (st *State) Now() simtime.Time { return st.now }

// Graph returns the topology.
func (st *State) Graph() *topology.Graph { return st.graph }

// Routing returns the path oracle for the topology.
func (st *State) Routing() topology.Routing { return st.routing }

// Flow returns the flow with the given ID.
func (st *State) Flow(id FlowID) *Flow { return st.flows[id] }

// Task returns the task with the given ID.
func (st *State) Task(id TaskID) *Task { return st.tasks[id] }

// ActiveFlows returns the active flows sorted by ID. The slice is fresh on
// every call; the *Flow values are shared with the engine.
func (st *State) ActiveFlows() []*Flow {
	return st.AppendActiveFlows(make([]*Flow, 0, len(st.active)))
}

// AppendActiveFlows appends the active flows, sorted by ID, to dst and
// returns the extended slice. Schedulers that run on every event instant
// pass a buffer they keep across calls (truncated to [:0]) so the per-tick
// snapshot costs no allocation once the buffer has grown to fleet size.
func (st *State) AppendActiveFlows(dst []*Flow) []*Flow {
	return append(dst, st.active...)
}

// NumActive returns the number of active flows.
func (st *State) NumActive() int { return len(st.active) }

// KillFlow terminates an active flow (PDQ Early Termination, D3/Fair
// Sharing expiry stop, TAPS task rejection). Bytes already sent remain
// accounted (and will count as wasted bandwidth).
func (st *State) KillFlow(f *Flow, note string) {
	if f.State != FlowActive {
		return
	}
	f.State = FlowKilled
	f.Finish = st.now
	f.KillNote = note
	st.deactivate(f)
}

// deactivate removes f from the active set. Flow IDs are handed out in
// arrival order, so the set only ever grows at its end and stays sorted.
func (st *State) deactivate(f *Flow) {
	if i, ok := slices.BinarySearchFunc(st.active, f.ID, func(a *Flow, id FlowID) int { return cmp.Compare(a.ID, id) }); ok {
		st.active = slices.Delete(st.active, i, i+1)
	}
}

// activeFlow returns the flow with the given ID if it is active, or nil
// (also for an ID the run never handed out).
func (st *State) activeFlow(id FlowID) *Flow {
	if id < 0 || int(id) >= len(st.flows) || st.flows[id].State != FlowActive {
		return nil
	}
	return st.flows[id]
}

// KillTask kills every still-active flow of the task and marks the task
// rejected: no further bytes will be spent on it. The first kill of a
// task fires the scheduler's OnTaskRejected hook.
func (st *State) KillTask(id TaskID, note string) {
	st.endTask(id, note, false)
}

// PreemptTask is KillTask for the preemption branch of a reject rule: an
// already-admitted task sacrificed for a more promising newcomer. The
// first kill of a task fires the scheduler's OnTaskPreempted hook.
func (st *State) PreemptTask(id TaskID, note string) {
	st.endTask(id, note, true)
}

func (st *State) endTask(id TaskID, note string, preempted bool) {
	t := st.tasks[id]
	first := !t.Rejected
	t.Rejected = true
	for _, fid := range t.Flows {
		st.KillFlow(st.flows[fid], note)
	}
	if first && st.onTaskEnd != nil {
		st.onTaskEnd(t, note, preempted)
	}
}

// TaskCompletionFraction returns the fraction of the task's bytes already
// delivered — the "completion ratio of the task" used by the TAPS reject
// rule (§IV-B).
func (st *State) TaskCompletionFraction(id TaskID) float64 {
	t := st.tasks[id]
	var total, sent float64
	for _, fid := range t.Flows {
		f := st.flows[fid]
		total += float64(f.Size)
		sent += float64(f.Size) - f.remaining
	}
	if total == 0 {
		return 1
	}
	return sent / total
}

// Result is the outcome of a completed simulation run.
type Result struct {
	Scheduler string
	Flows     []*Flow
	Tasks     []*Task
	EndTime   simtime.Time
	Events    int
	// Segments holds per-flow transmission segments when
	// Config.RecordSegments was set (nil otherwise).
	Segments map[FlowID][]Segment
}

// Config tunes an Engine.
type Config struct {
	// Validate enables per-event link-capacity and sanity checks on the
	// scheduler's rate allocations (used by tests; costs time).
	Validate bool
	// MaxTime aborts runaway simulations; 0 means no limit.
	MaxTime simtime.Time
	// RecordSegments stores every flow's transmission segments
	// (time interval + rate) in Result.Segments, for Gantt rendering
	// and schedule debugging. Costs memory proportional to rate changes.
	RecordSegments bool
	// LinkFailures injects link failures: at each failure's instant the
	// link goes dead for the rest of the run, affected flows are
	// rerouted over surviving equal-cost paths (or killed when none
	// exists), and the scheduler's OnLinkDown hook fires.
	LinkFailures []LinkFailure
	// Sink, when on, is the one place a run is recorded. It receives the
	// records the engine owns — task arrivals (with flow identities),
	// task/flow terminals, link failures and, when RecordSegments is also
	// set, the transmission segments at the end of the run — for its
	// decision log, its decision counters, or both. A scheduler that is a
	// SinkUser (TAPS) is handed the same sink, so its planning passes,
	// commits and verdicts land in between: the log is then a complete
	// flight recording that replays to the span tree and plan state of the
	// run. For any other scheduler the engine reports on its behalf: an
	// arrival the scheduler leaves alive is an admission, and every Rates
	// call is timed into Sink.Obs as a planner sample, so all schedulers
	// are recorded alike. The zero value is off, with zero overhead on the
	// hot path.
	Sink declog.Sink
}

// SinkUser is a Scheduler that reports its own decisions and times its own
// planning passes. New hands it the engine's Config.Sink, and the engine
// then neither reports its admissions nor times its Rates calls.
type SinkUser interface{ SetSink(*declog.Sink) }

// LinkFailure kills one directed link at an instant.
type LinkFailure struct {
	At   simtime.Time
	Link topology.LinkID
}

// Segment is one constant-rate stretch of a flow's transmission. It is the
// span tree's segment, so a run's segments go to the decision log as they are.
type Segment = span.Segment

// Engine drives one simulation run.
type Engine struct {
	st       *State
	sched    Scheduler
	cfg      Config
	pending  []TaskSpec
	failures []LinkFailure
	events   int
	segments map[FlowID][]Segment
	flowBuf  []*Flow // scratch for per-event flow collections
	// proxy is set when the sink is on and the scheduler is not a
	// SinkUser: the engine then reports its admissions and times its Rates.
	proxy bool
}

// New builds an engine over the graph/routing for the given task specs.
// The specs may be in any arrival order.
func New(g *topology.Graph, r topology.Routing, sched Scheduler, specs []TaskSpec, cfg Config) *Engine {
	pending := slices.Clone(specs)
	slices.SortStableFunc(pending, func(a, b TaskSpec) int { return cmp.Compare(a.Arrival, b.Arrival) })
	failures := slices.Clone(cfg.LinkFailures)
	slices.SortStableFunc(failures, func(a, b LinkFailure) int { return cmp.Compare(a.At, b.At) })
	dead := make(map[topology.LinkID]bool)
	e := &Engine{
		st: &State{
			graph:   g,
			routing: &liveRouting{inner: r, dead: dead},
			dead:    dead,
		},
		sched:    sched,
		cfg:      cfg,
		pending:  pending,
		failures: failures,
	}
	e.st.onTaskEnd = e.taskEnded
	if u, ok := sched.(SinkUser); ok {
		u.SetSink(&e.cfg.Sink)
	} else {
		e.proxy = e.cfg.Sink.On()
	}
	return e
}

// taskEnded records a task kill and dispatches it to the matching
// scheduler hook. Runs at most once per task (see State.endTask).
func (e *Engine) taskEnded(t *Task, note string, preempted bool) {
	outcome := span.OutcomeRejected
	if preempted {
		outcome = span.OutcomePreempted
	}
	e.cfg.Sink.Emit(&declog.Record{Kind: declog.KindTaskEnd, Time: e.st.now, Task: int64(t.ID),
		Outcome: outcome, Reason: note})
	if preempted {
		e.sched.OnTaskPreempted(e.st, t)
	} else {
		e.sched.OnTaskRejected(e.st, t)
	}
}

// Run executes the simulation to completion and returns the result.
func (e *Engine) Run() (*Result, error) {
	st := e.st
	for {
		e.applyFailures()
		e.admitArrivals()
		e.fireDeadlines()
		if len(st.active) == 0 && len(e.pending) == 0 {
			break
		}
		if len(st.active) == 0 {
			// Idle until the next arrival.
			st.now = e.pending[0].Arrival
			continue
		}
		rates, horizon := e.rates()
		if len(st.active) == 0 {
			// The scheduler killed the last active flows inside Rates (PDQ's
			// Early Termination does): the run is over, or idle until the
			// next arrival.
			continue
		}
		if e.cfg.Validate {
			if err := e.validate(rates); err != nil {
				return nil, err
			}
		}
		next := e.nextEventTime(rates, horizon)
		if next >= simtime.Infinity {
			return nil, fmt.Errorf("sim: stalled at t=%d: %d active flows, no rates, no horizon",
				st.now, len(st.active))
		}
		if next <= st.now {
			next = st.now + 1
		}
		if e.cfg.MaxTime > 0 && next > e.cfg.MaxTime {
			return nil, fmt.Errorf("sim: exceeded MaxTime %d at t=%d with %d active flows",
				e.cfg.MaxTime, st.now, len(st.active))
		}
		e.integrate(rates, next-st.now)
		st.now = next
		e.completeFinished()
		e.events++
	}
	e.finishSpans()
	return &Result{
		Scheduler: e.sched.Name(),
		Flows:     st.flows,
		Tasks:     st.tasks,
		EndTime:   st.now,
		Events:    e.events,
		Segments:  e.segments,
	}, nil
}

// rates asks the scheduler for its allocation. The call is timed into the
// sink's recorder when the engine reports for the scheduler (proxy).
func (e *Engine) rates() (RateMap, simtime.Time) {
	if !e.proxy || e.cfg.Sink.Obs == nil {
		return e.sched.Rates(e.st)
	}
	sw := obs.StartStopwatch()
	rates, horizon := e.sched.Rates(e.st)
	e.cfg.Sink.Obs.ObservePlanner(sw.Elapsed())
	return rates, horizon
}

// finishSpans emits the records that close the span tree at the end of a
// run: every flow's terminal event (its Finish instant and kill note are
// authoritative on the Flow itself), the terminal outcome of tasks the reject rule never
// touched (completed, or killed mid-flight by deadline misses / link
// failures — rejections and preemptions were already recorded live by
// taskEnded), and the transmission segments when the run recorded them.
func (e *Engine) finishSpans() {
	sink := &e.cfg.Sink
	if !sink.On() {
		return
	}
	st := e.st
	for _, f := range st.flows {
		switch f.State {
		case FlowDone:
			sink.Emit(&declog.Record{Kind: declog.KindFlowEnd, Time: f.Finish, Flow: int64(f.ID),
				Done: true, OnTime: f.Finish <= f.Deadline})
		case FlowKilled:
			sink.Emit(&declog.Record{Kind: declog.KindFlowEnd, Time: f.Finish, Flow: int64(f.ID), Reason: f.KillNote})
		}
		if segs := e.segments[f.ID]; len(segs) > 0 {
			sink.Emit(&declog.Record{Kind: declog.KindSegments, Time: st.now, Flow: int64(f.ID), Segments: segs})
		}
	}
	for _, t := range st.tasks {
		if t.Rejected {
			continue
		}
		allDone, end, note := true, t.Arrival, ""
		for _, fid := range t.Flows {
			f := st.flows[fid]
			end = max(end, f.Finish)
			if f.State != FlowDone {
				allDone = false
				if note == "" {
					note = f.KillNote
				}
			}
		}
		outcome := span.OutcomeCompleted
		if !allDone {
			outcome = span.OutcomeKilled
		}
		sink.Emit(&declog.Record{Kind: declog.KindTaskEnd, Time: end, Task: int64(t.ID),
			Outcome: outcome, Reason: note})
	}
}

// applyFailures takes due links down, reroutes or kills the affected
// flows, and notifies the scheduler.
func (e *Engine) applyFailures() {
	st := e.st
	for len(e.failures) > 0 && e.failures[0].At <= st.now {
		lf := e.failures[0]
		e.failures = e.failures[1:]
		if st.dead[lf.Link] {
			continue
		}
		st.dead[lf.Link] = true
		var affected []*Flow
		for _, f := range st.active {
			if slices.Contains(f.Path, lf.Link) {
				affected = append(affected, f)
			}
		}
		for _, f := range affected {
			if np := topology.ECMP(st.routing, f.Src, f.Dst, uint64(f.ID)); np != nil {
				f.Path = np
			} else {
				st.KillFlow(f, "disconnected by link failure")
			}
		}
		// Log the failure before the scheduler reacts, so replay sees the
		// recovery re-plan after its cause.
		e.cfg.Sink.Emit(&declog.Record{Kind: declog.KindLinkDown, Time: st.now, Link: int32(lf.Link)})
		e.sched.OnLinkDown(st, lf.Link)
	}
}

// admitArrivals materializes every task whose arrival instant is now.
func (e *Engine) admitArrivals() {
	st := e.st
	for len(e.pending) > 0 && e.pending[0].Arrival <= st.now {
		spec := e.pending[0]
		e.pending = e.pending[1:]
		task := &Task{
			ID:       TaskID(len(st.tasks)),
			Arrival:  spec.Arrival,
			Deadline: spec.Arrival + spec.Deadline,
		}
		st.tasks = append(st.tasks, task)
		var infos []declog.FlowInfo
		if e.cfg.Sink.On() {
			infos = make([]declog.FlowInfo, 0, len(spec.Flows))
		}
		for _, fs := range spec.Flows {
			f := &Flow{
				ID:        FlowID(len(st.flows)),
				Task:      task.ID,
				Src:       fs.Src,
				Dst:       fs.Dst,
				Size:      fs.Size,
				Arrival:   spec.Arrival,
				Deadline:  task.Deadline,
				State:     FlowActive,
				remaining: float64(fs.Size),
			}
			if fs.Src != fs.Dst {
				f.Path = topology.ECMP(st.routing, fs.Src, fs.Dst, uint64(f.ID))
			}
			st.flows = append(st.flows, f)
			task.Flows = append(task.Flows, f.ID)
			if e.cfg.Sink.On() {
				infos = append(infos, declog.FlowInfo{ID: int64(f.ID), Src: int32(fs.Src), Dst: int32(fs.Dst),
					Size: fs.Size, Label: st.graph.Node(fs.Src).Name + "->" + st.graph.Node(fs.Dst).Name})
			}
			if f.remaining <= 0 || fs.Src == fs.Dst {
				// Zero bytes, or a local transfer that never touches
				// the network: delivered instantly (the bytes count as
				// sent without occupying any link).
				f.BytesSent = float64(f.Size)
				f.remaining = 0
				f.State = FlowDone
				f.Finish = st.now
				continue
			}
			st.active = append(st.active, f)
		}
		e.cfg.Sink.Emit(&declog.Record{Kind: declog.KindTask, Time: task.Arrival, Task: int64(task.ID),
			Deadline: task.Deadline, Flows: infos})
		e.sched.OnTaskArrival(st, task)
		// A scheduler that rejects marks the task before returning;
		// one that admits everything leaves every task alive.
		if e.proxy && !task.Rejected {
			e.cfg.Sink.Emit(&declog.Record{Kind: declog.KindAdmit, Time: st.now, Task: int64(task.ID)})
		}
	}
}

// fireDeadlines notifies the scheduler, exactly once per flow and in ID
// order, that an active flow has passed its deadline.
func (e *Engine) fireDeadlines() {
	st := e.st
	expired := e.flowBuf[:0]
	for _, f := range st.active {
		if !f.deadlineNotified && f.Deadline <= st.now {
			f.deadlineNotified = true
			expired = append(expired, f)
		}
	}
	e.flowBuf = expired[:0]
	for _, f := range expired {
		e.sched.OnDeadlineMissed(st, f)
	}
}

// nextEventTime computes the next instant anything observable happens.
func (e *Engine) nextEventTime(rates RateMap, horizon simtime.Time) simtime.Time {
	st := e.st
	next := simtime.Infinity
	if len(e.pending) > 0 {
		next = min(next, e.pending[0].Arrival)
	}
	if len(e.failures) > 0 {
		next = min(next, e.failures[0].At)
	}
	if horizon > st.now {
		next = min(next, horizon)
	}
	for _, f := range st.active {
		if !f.deadlineNotified && f.Deadline > st.now {
			next = min(next, f.Deadline)
		}
		if r := rates[f.ID]; r > 0 {
			next = min(next, st.now+DurationFor(f.remaining, r))
		}
	}
	return next
}

// integrate advances every transmitting flow by dt microseconds.
func (e *Engine) integrate(rates RateMap, dt simtime.Time) {
	for id, r := range rates {
		if r <= 0 {
			continue
		}
		f := e.st.activeFlow(id)
		if f == nil {
			continue
		}
		bytes := r * float64(dt) / 1e6
		if bytes > f.remaining {
			bytes = f.remaining
		}
		f.remaining -= bytes
		f.BytesSent += bytes
		if e.cfg.RecordSegments {
			e.recordSegment(id, simtime.Interval{Start: e.st.now, End: e.st.now + dt}, r)
		}
	}
}

// recordSegment appends a transmission segment, coalescing with the
// previous one when contiguous at the same rate.
func (e *Engine) recordSegment(id FlowID, iv simtime.Interval, rate float64) {
	if e.segments == nil {
		e.segments = make(map[FlowID][]Segment)
	}
	segs := e.segments[id]
	if n := len(segs); n > 0 && segs[n-1].Interval.End == iv.Start && segs[n-1].Rate == rate {
		segs[n-1].Interval.End = iv.End
		e.segments[id] = segs
		return
	}
	e.segments[id] = append(segs, Segment{Interval: iv, Rate: rate})
}

// completeFinished retires flows whose remaining bytes reached zero, in ID
// order, one at a time: each OnFlowFinished still sees the later ones of
// the same instant active.
func (e *Engine) completeFinished() {
	st := e.st
	done := e.flowBuf[:0]
	for _, f := range st.active {
		if f.remaining <= 1e-9 {
			done = append(done, f)
		}
	}
	e.flowBuf = done[:0]
	for _, f := range done {
		f.remaining = 0
		f.State = FlowDone
		f.Finish = st.now
		st.deactivate(f)
		e.sched.OnFlowFinished(st, f)
	}
}

// validate checks a rate allocation: non-negative rates, only active flows,
// flows with traffic must have a valid path, and no link is oversubscribed.
// Flows and links are checked in sorted order so the reported violation is
// the same on every run.
func (e *Engine) validate(rates RateMap) error {
	st := e.st
	load := make(map[topology.LinkID]float64)
	ids := make([]FlowID, 0, len(rates))
	for id := range rates {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		r := rates[id]
		if r < 0 {
			return fmt.Errorf("sim: negative rate %g for flow %d", r, id)
		}
		if r == 0 {
			continue
		}
		f := st.activeFlow(id)
		if f == nil {
			return fmt.Errorf("sim: rate assigned to non-active flow %d", id)
		}
		if len(f.Path) == 0 && f.Src != f.Dst {
			return fmt.Errorf("sim: flow %d transmits without a path", id)
		}
		if !st.graph.ValidPath(f.Path, f.Src, f.Dst) {
			return fmt.Errorf("sim: flow %d has invalid path %v", id, f.Path)
		}
		for _, l := range f.Path {
			if st.dead[l] {
				return fmt.Errorf("sim: flow %d transmits over dead link %s", id, st.graph.Link(l).Name)
			}
			load[l] += r
		}
	}
	links := make([]topology.LinkID, 0, len(load))
	for l := range load {
		links = append(links, l)
	}
	slices.Sort(links)
	for _, l := range links {
		total := load[l]
		capac := st.graph.Link(l).Capacity
		if total > capac*(1+1e-9)+1e-6 {
			return fmt.Errorf("sim: link %s oversubscribed: %g > %g",
				st.graph.Link(l).Name, total, capac)
		}
	}
	return nil
}
