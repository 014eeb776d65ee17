// Package sim implements the flow-level data center network simulator the
// paper's evaluation (§V) is built on: a continuous-time, rate-based
// discrete-event engine over a topology.Graph.
//
// The model matches the paper's simulator: links have uniform capacity,
// flows are fluid (no per-packet queueing), every flow of a task arrives at
// the task's arrival instant and shares the task's deadline, and a
// pluggable Scheduler decides per-flow transmission rates (and, for TAPS,
// routing paths) at every event.
package sim

import (
	"fmt"

	"taps/internal/simtime"
	"taps/internal/topology"
)

// TaskID identifies a task (coflow) within one simulation.
type TaskID int32

// FlowID identifies a flow within one simulation.
type FlowID int32

// FlowSpec describes one flow of a task before simulation.
type FlowSpec struct {
	Src, Dst topology.NodeID
	Size     int64 // bytes
}

// TaskSpec describes a task: its arrival instant, its relative deadline
// (shared by all its flows, as in §V-A), and its flows.
type TaskSpec struct {
	Arrival  simtime.Time
	Deadline simtime.Time // relative to Arrival
	Flows    []FlowSpec
}

// FlowState is the lifecycle state of a flow.
type FlowState uint8

// Flow lifecycle states.
const (
	FlowPending FlowState = iota // task not yet arrived
	FlowActive                   // arrived, transmitting or waiting for rate
	FlowDone                     // all bytes delivered (on time or late)
	FlowKilled                   // terminated by the scheduler before completion
)

func (s FlowState) String() string {
	switch s {
	case FlowPending:
		return "pending"
	case FlowActive:
		return "active"
	case FlowDone:
		return "done"
	case FlowKilled:
		return "killed"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Flow is the runtime representation of one flow.
type Flow struct {
	ID   FlowID
	Task TaskID
	Src  topology.NodeID
	Dst  topology.NodeID
	Size int64

	Arrival  simtime.Time // absolute (== task arrival)
	Deadline simtime.Time // absolute

	// Path is the route the flow currently uses. The engine assigns an
	// ECMP default at arrival; schedulers (TAPS) may overwrite it while
	// the flow is active.
	Path topology.Path

	State     FlowState
	Finish    simtime.Time // completion or kill instant (valid once State > FlowActive)
	BytesSent float64      // total bytes carried for this flow, useful or not
	KillNote  string       // reason recorded by KillFlow

	remaining        float64
	deadlineNotified bool
}

// Remaining returns the bytes still to transmit.
func (f *Flow) Remaining() float64 { return f.remaining }

// OnTime reports whether the flow completed all bytes at or before its
// deadline.
func (f *Flow) OnTime() bool { return f.State == FlowDone && f.Finish <= f.Deadline }

// DurationFor returns the ceil time to move `bytes` at `rate` bytes/second.
func DurationFor(bytes, rate float64) simtime.Time {
	if bytes <= 0 {
		return 0
	}
	if rate <= 0 {
		return simtime.Infinity
	}
	us := bytes * 1e6 / rate
	d := simtime.Time(us)
	if float64(d) < us {
		d++
	}
	if d < 1 {
		d = 1
	}
	return d
}

// Task is the runtime representation of one task.
type Task struct {
	ID       TaskID
	Arrival  simtime.Time
	Deadline simtime.Time // absolute
	Flows    []FlowID

	Rejected bool // the scheduler refused or preempted the whole task
}

// TotalBytes returns the sum of the task's flow sizes.
func (t *Task) TotalBytes(flows []*Flow) int64 {
	var total int64
	for _, id := range t.Flows {
		total += flows[id].Size
	}
	return total
}

// Completed reports whether every flow of the task finished on time.
func (t *Task) Completed(flows []*Flow) bool {
	for _, id := range t.Flows {
		if !flows[id].OnTime() {
			return false
		}
	}
	return len(t.Flows) > 0
}
