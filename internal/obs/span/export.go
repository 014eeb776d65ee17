package span

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"taps/internal/simtime"
)

// Process IDs of the trace_event layout: one process per span dimension,
// so chrome://tracing / Perfetto group the tracks.
const (
	pidTasks = 1 // one thread per task: lifecycle + decision instants
	pidLinks = 2 // one thread per link: granted (and revoked) slice windows
	pidFlows = 3 // one thread per flow: lifetime + transmission segments
)

// tidController is the tasks-process thread carrying replan instants.
const tidController = 0

// traceEvent is one Chrome trace_event record. All timestamps and
// durations are microseconds — exactly simtime's unit, so the conversion
// from intervals is Start/Len verbatim.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int64          `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the top-level trace_event JSON object.
type traceFile struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

// WriteTraceEvents renders the tree as Chrome trace_event JSON,
// loadable in chrome://tracing and Perfetto: the "tasks" process has one
// track per task (lifecycle span, terminal instant with the attribution
// chain in its args, replan instants on the controller track), the
// "links" process one track per link (slice occupancy, with revoked
// windows flagged), and the "flows" process one track per flow (lifetime
// and transmission segments). Output is deterministic for a given tree.
func WriteTraceEvents(w io.Writer, t *Tree) error {
	evs := buildTraceEvents(t)
	raw, err := json.MarshalIndent(traceFile{DisplayTimeUnit: "ms", TraceEvents: evs}, "", " ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	_, err = w.Write(raw)
	return err
}

// horizon returns the latest instant the tree knows about, used to close
// still-open spans in the export.
func (t *Tree) horizon() simtime.Time {
	var end simtime.Time
	for i := range t.Tasks {
		end = max(end, t.Tasks[i].End, t.Tasks[i].Arrival)
	}
	for i := range t.Flows {
		end = max(end, t.Flows[i].End)
		if n := len(t.Flows[i].Segments); n > 0 {
			end = max(end, t.Flows[i].Segments[n-1].Interval.End)
		}
	}
	for i := range t.Replans {
		end = max(end, t.Replans[i].Time)
	}
	return end
}

func buildTraceEvents(t *Tree) []traceEvent {
	var evs []traceEvent
	meta := func(pid int, tid int64, kind, name string) {
		evs = append(evs, traceEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name}})
	}
	meta(pidTasks, tidController, "process_name", "tasks")
	meta(pidLinks, tidController, "process_name", "links")
	meta(pidFlows, tidController, "process_name", "flows")
	meta(pidTasks, tidController, "thread_name", "controller")

	horizon := t.horizon()
	endOf := func(start, end simtime.Time) int64 {
		if end <= start {
			end = max(horizon, start+1)
		}
		return int64(end - start)
	}

	// Tasks: lifecycle span + terminal instant (with attribution).
	for i := range t.Tasks {
		ts := &t.Tasks[i]
		meta(pidTasks, ts.Task, "thread_name", fmt.Sprintf("task %d", ts.Task))
		args := map[string]any{
			"outcome":     ts.Outcome.String(),
			"deadline_us": int64(ts.Deadline),
			"flows":       len(ts.Flows),
		}
		if ts.Reason != "" {
			args["reason"] = ts.Reason
		}
		if ts.PreemptedBy != NoTask {
			args["preempted_by"] = ts.PreemptedBy
		}
		evs = append(evs, traceEvent{
			Name: fmt.Sprintf("task %d", ts.Task), Ph: "X",
			Ts: int64(ts.Arrival), Dur: endOf(ts.Arrival, ts.End),
			Pid: pidTasks, Tid: ts.Task, Args: args,
		})
		if ts.Outcome != OutcomeRunning {
			iargs := map[string]any{}
			if ts.Reason != "" {
				iargs["reason"] = ts.Reason
			}
			name := ts.Outcome.String()
			if ts.Outcome == OutcomePreempted && ts.PreemptedBy != NoTask {
				name = fmt.Sprintf("preempted by task %d", ts.PreemptedBy)
			}
			if len(ts.Blocks) > 0 {
				iargs["blocking"] = t.blocksArg(ts.Blocks)
			}
			evs = append(evs, traceEvent{
				Name: name, Ph: "i", S: "t",
				Ts: int64(ts.End), Pid: pidTasks, Tid: ts.Task, Args: iargs,
			})
		}
	}

	// Controller: one instant per planning pass.
	for i := range t.Replans {
		rs := &t.Replans[i]
		name := fmt.Sprintf("replan #%d (%s)", rs.Seq, rs.Kind)
		args := map[string]any{
			"kind":        rs.Kind.String(),
			"flows":       rs.Flows,
			"paths_tried": rs.PathsTried,
		}
		if rs.Trigger != NoTask {
			args["trigger_task"] = rs.Trigger
		}
		evs = append(evs, traceEvent{
			Name: name, Ph: "i", S: "t",
			Ts: int64(rs.Time), Pid: pidTasks, Tid: tidController, Args: args,
		})
	}

	// Flows: lifetime span + transmission segments nested inside it.
	for i := range t.Flows {
		fs := &t.Flows[i]
		label := fmt.Sprintf("f%d", fs.Flow)
		if fs.Label != "" {
			label += " " + fs.Label
		}
		meta(pidFlows, fs.Flow, "thread_name", label)
		args := map[string]any{"task": fs.Task}
		switch {
		case !fs.Ended:
			args["state"] = "active"
		case fs.Done && fs.OnTime:
			args["state"] = "done on time"
		case fs.Done:
			args["state"] = "done late"
		default:
			args["state"] = "killed"
		}
		if fs.Note != "" {
			args["note"] = fs.Note
		}
		evs = append(evs, traceEvent{
			Name: label, Ph: "X",
			Ts: int64(fs.Arrival), Dur: endOf(fs.Arrival, fs.End),
			Pid: pidFlows, Tid: fs.Flow, Args: args,
		})
		for _, seg := range fs.Segments {
			evs = append(evs, traceEvent{
				Name: "tx", Ph: "X",
				Ts: int64(seg.Interval.Start), Dur: int64(seg.Interval.Len()),
				Pid: pidFlows, Tid: fs.Flow,
				Args: map[string]any{"rate_bps": seg.Rate * 8},
			})
		}
	}

	// Links: granted slice windows clipped to their plan's validity, with
	// the revoked tails flagged, plus failure instants.
	evs = append(evs, linkEvents(t)...)
	return evs
}

// blocksArg renders an attribution chain as structured trace args.
func (t *Tree) blocksArg(blocks []LinkBlock) []map[string]any {
	out := make([]map[string]any, 0, len(blocks))
	for _, b := range blocks {
		holders := make([]map[string]any, 0, len(b.Holders))
		for _, h := range b.Holders {
			holders = append(holders, map[string]any{
				"task": h.Task, "busy_us": int64(h.Busy),
			})
		}
		out = append(out, map[string]any{
			"link":      t.LinkName(b.Link),
			"window_us": []int64{int64(b.Window.Start), int64(b.Window.End)},
			"busy_us":   int64(b.Busy),
			"holders":   holders,
		})
	}
	return out
}

// linkSlice is one clipped slice window attributed to a flow on a link.
type linkSlice struct {
	link    int32
	iv      simtime.Interval
	flow    int64
	task    int64
	seq     int // pass that granted it
	revoked bool
}

// linkSlices projects every committed plan's granted windows onto its
// path links, splitting each window at the instant the plan was
// superseded (the next committed pass that re-planned the flow) or the
// flow was killed: the part before is occupancy, the tail is a revoked
// grant.
func linkSlices(t *Tree) []linkSlice {
	grants := t.grants()
	var out []linkSlice
	for i := range t.Flows {
		fs := &t.Flows[i]
		for _, g := range grants[fs.Flow] {
			for _, iv := range g.plan.Slices {
				valid := simtime.Interval{Start: iv.Start, End: min(iv.End, g.cutoff)}
				rest := simtime.Interval{Start: max(iv.Start, g.cutoff), End: iv.End}
				for _, l := range g.plan.Path {
					if !valid.Empty() {
						out = append(out, linkSlice{link: l, iv: valid,
							flow: fs.Flow, task: g.plan.Task, seq: g.seq})
					}
					if !rest.Empty() {
						out = append(out, linkSlice{link: l, iv: rest,
							flow: fs.Flow, task: g.plan.Task, seq: g.seq, revoked: true})
					}
				}
			}
		}
	}
	return out
}

// linkEvents renders the per-link occupancy tracks.
func linkEvents(t *Tree) []traceEvent {
	slices := linkSlices(t)
	links := make(map[int32]bool)
	for _, s := range slices {
		links[s.link] = true
	}
	for _, d := range t.LinkDowns {
		links[d.Link] = true
	}
	ids := make([]int32, 0, len(links))
	for l := range links {
		ids = append(ids, l)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	sort.SliceStable(slices, func(i, j int) bool {
		a, b := slices[i], slices[j]
		if a.link != b.link {
			return a.link < b.link
		}
		if a.iv.Start != b.iv.Start {
			return a.iv.Start < b.iv.Start
		}
		return a.flow < b.flow
	})

	var evs []traceEvent
	for _, l := range ids {
		evs = append(evs, traceEvent{Name: "thread_name", Ph: "M",
			Pid: pidLinks, Tid: int64(l),
			Args: map[string]any{"name": t.LinkName(l)}})
	}
	for _, s := range slices {
		name := fmt.Sprintf("f%d/t%d", s.flow, s.task)
		args := map[string]any{"flow": s.flow, "task": s.task, "replan": s.seq}
		if s.revoked {
			name = "revoked " + name
			args["revoked"] = true
		}
		evs = append(evs, traceEvent{
			Name: name, Ph: "X",
			Ts: int64(s.iv.Start), Dur: int64(s.iv.Len()),
			Pid: pidLinks, Tid: int64(s.link), Args: args,
		})
	}
	for _, d := range t.LinkDowns {
		evs = append(evs, traceEvent{
			Name: "link down", Ph: "i", S: "t",
			Ts: int64(d.Time), Pid: pidLinks, Tid: int64(d.Link),
		})
	}
	return evs
}
