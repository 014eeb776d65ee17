package core

import (
	"slices"
	"strconv"

	"taps/internal/obs/declog"
	"taps/internal/obs/span"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// Service is the decision half of a control plane: what the controller of
// Fig. 4 does with each probe and each TERM, around the Kernel. It knows
// which tasks were decided and which hold a grant, and writes the
// lifecycle records of what it decides. Like the kernel it performs no I/O
// and reads no clock; the networked controller and the SDN testbed carry
// its answers to their own data planes. It is not safe for concurrent use.
type Service struct {
	k    *Kernel
	g    *topology.Graph
	sink *declog.Sink
	dp   DataPlane

	// accepted and rejected split the tasks a probe was decided for, each
	// in ascending order: admitted and not since discarded, and the rest.
	accepted, rejected []int64
}

// NewService returns the decision service of a control plane over g with
// routing r. It and its kernel report to sink, which may be nil. dp, when
// not nil, stops the flows of a task the reject rule discarded.
func NewService(g *topology.Graph, r topology.Routing, cfg Config, sink *declog.Sink, dp DataPlane) *Service {
	s := &Service{g: g, sink: sink, dp: dp}
	s.k = NewKernel(g, r, cfg, s)
	s.k.Sink = sink
	return s
}

// Kernel returns the service's kernel, for adapters to read grants from.
func (s *Service) Kernel() *Kernel { return s.k }

// Answer is the service's reply to a probe: the reject rule's decision
// and, for Preempt, the victim. Again marks a repeated probe, whose sender
// lost the first reply: it gets Accept, and its task's flows re-planned
// from now, while the task holds a grant, and RejectNew, with no planning
// pass, once it does not.
type Answer struct {
	Decision Decision
	Victim   int64
	Again    bool
}

// Probe decides a probe of task at now. A first probe is the task's
// arrival: its Task record, Alg. 1 and the reject rule, and the ends of
// the flows an admitted task finished on arrival, which no sender will
// report. A repeated probe issues the lost grant anew and reads no specs.
func (s *Service) Probe(now simtime.Time, task int64, deadline simtime.Time, specs []FlowSpec) Answer {
	if s.Accepted(task) {
		s.k.Replan(now, task)
		return Answer{Decision: Accept, Again: true}
	}
	if _, ok := slices.BinarySearch(s.rejected, task); ok {
		return Answer{Decision: RejectNew, Again: true}
	}
	if s.sink.On() {
		infos := make([]declog.FlowInfo, len(specs))
		for i, fs := range specs {
			infos[i] = declog.FlowInfo{ID: int64(fs.Key), Src: int32(fs.Src), Dst: int32(fs.Dst), Size: fs.Size,
				Label: s.g.Node(fs.Src).Name + "->" + s.g.Node(fs.Dst).Name}
		}
		s.sink.Emit(&declog.Record{Kind: declog.KindTask, Time: now, Task: task, Deadline: deadline, Flows: infos})
	}
	decision, victim := s.k.TaskArrived(now, task, deadline, specs)
	if decision != RejectNew {
		s.accepted = insert(s.accepted, task)
		ended := false
		for _, f := range s.k.Flows(task) {
			if f.Done {
				s.flowEnded(now, f)
				ended = true
			}
		}
		if ended {
			s.taskEnded(now, task)
		}
	}
	return Answer{Decision: decision, Victim: victim}
}

// Term decides a TERM: the sender of flow key stopped at now with left
// bytes undelivered. Unknown and finished flows are ignored.
func (s *Service) Term(now simtime.Time, key uint64, left float64) {
	f := s.k.Flow(key)
	if f == nil || f.Done {
		return
	}
	s.k.FlowFinished(now, key, left)
	s.flowEnded(now, f)
	s.taskEnded(now, f.Task)
}

// Discard is the kernel's DataPlane: the terminal records of a task the
// reject rule discarded and of its flows, the task out of the accepted
// set, then the adapter's data plane.
func (s *Service) Discard(now simtime.Time, task, by int64) {
	if s.sink.On() {
		outcome, reason, note := span.OutcomeRejected, "reject rule", "task rejected"
		if by != span.NoTask {
			outcome, reason, note = span.OutcomePreempted, "preempted by task "+strconv.FormatInt(by, 10), "task preempted"
		}
		s.sink.Emit(&declog.Record{Kind: declog.KindTaskEnd, Time: now, Task: task, Outcome: outcome, Reason: reason})
		for _, f := range s.k.Flows(task) {
			s.sink.Emit(&declog.Record{Kind: declog.KindFlowEnd, Time: now, Flow: int64(f.Key), Reason: note})
		}
	}
	if i, ok := slices.BinarySearch(s.accepted, task); ok {
		s.accepted = slices.Delete(s.accepted, i, i+1)
	}
	s.rejected = insert(s.rejected, task)
	if s.dp != nil {
		s.dp.Discard(now, task, by)
	}
}

// flowEnded records the end of a finished flow.
func (s *Service) flowEnded(now simtime.Time, f *Flow) {
	delivered := f.Bytes <= 0
	s.sink.Emit(&declog.Record{Kind: declog.KindFlowEnd, Time: now, Flow: int64(f.Key),
		Done: delivered, OnTime: delivered && now <= f.Deadline})
}

// taskEnded records a task as completed once all its flows are done.
// Callers end every flow an input finished first, so a task ends once
// however many of its flows finish together.
func (s *Service) taskEnded(now simtime.Time, task int64) {
	for _, f := range s.k.Flows(task) {
		if !f.Done {
			return
		}
	}
	s.sink.Emit(&declog.Record{Kind: declog.KindTaskEnd, Time: now, Task: task, Outcome: span.OutcomeCompleted})
}

// Accepted reports whether task was admitted and not since discarded.
func (s *Service) Accepted(task int64) bool {
	_, ok := slices.BinarySearch(s.accepted, task)
	return ok
}

// AcceptedTasks returns the tasks admitted and not since discarded, in
// ascending order. The slice is the service's: do not keep it past the
// next input.
func (s *Service) AcceptedTasks() []int64 { return s.accepted }

// RejectedTasks returns, in ascending order, the tasks decided that hold
// no grant: rejected on arrival, or preempted since. The slice is the
// service's, like AcceptedTasks'.
func (s *Service) RejectedTasks() []int64 { return s.rejected }

// insert adds task to the ascending set. Task IDs mostly arrive in
// increasing order, which makes it an append.
func insert(set []int64, task int64) []int64 {
	i, _ := slices.BinarySearch(set, task)
	return slices.Insert(set, i, task)
}
