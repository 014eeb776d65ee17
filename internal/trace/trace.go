// Package trace renders recorded simulation schedules as ASCII Gantt
// charts: one row per flow, time left to right, showing when each flow
// transmitted, at what fraction of line rate, where its deadline fell, and
// how it ended. Enable recording with sim.Config.RecordSegments.
//
// Legend: '#' full line rate, digits 1-9 tenths of line rate, '.' active
// but silent, '|' deadline, '$' on-time completion, 'x' kill/late end.
// With span data (Options.Spans): '~' a slice window that was granted and
// later revoked by a re-plan or kill, 'P' the kill instant of a flow whose
// task was preempted for a newcomer.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"taps/internal/obs/span"
	"taps/internal/sim"
	"taps/internal/simtime"
)

// Options tunes the Gantt rendering.
type Options struct {
	// Width is the number of time columns (default 72).
	Width int
	// LineRate is the capacity used to scale rate marks; 0 derives it
	// from the maximum recorded rate.
	LineRate float64
	// Spans, when non-nil, enriches the chart from the run's span tree:
	// slice windows that were granted and then revoked by a re-plan (or a
	// kill) render as '~', and flows killed because their task was
	// preempted get a 'P' end mark instead of the generic 'x'.
	Spans *span.Tree
}

// Gantt renders the run's schedule. Flows are ordered by ID (arrival
// order). Without recorded segments it still draws lifetimes, deadlines
// and outcomes.
func Gantt(res *sim.Result, opts Options) string {
	width := opts.Width
	if width <= 0 {
		width = 72
	}
	end := res.EndTime
	for _, f := range res.Flows {
		// Deadlines may exceed the end of the run.
		if f.Deadline > end && f.Deadline < simtime.Infinity/2 {
			end = f.Deadline
		}
	}
	if end <= 0 {
		end = 1
	}
	lineRate := opts.LineRate
	if lineRate <= 0 {
		for _, segs := range res.Segments {
			for _, s := range segs {
				lineRate = max(lineRate, s.Rate)
			}
		}
		if lineRate <= 0 {
			lineRate = 1
		}
	}
	col := func(t simtime.Time) int {
		c := int(float64(t) / float64(end) * float64(width-1))
		return min(max(c, 0), width-1)
	}

	// What the span tree adds, gathered once for all rows.
	var revoked map[int64][]simtime.Interval
	preempted := make(map[sim.TaskID]bool)
	if opts.Spans != nil {
		revoked = opts.Spans.RevokedByFlow()
		for _, ts := range opts.Spans.Tasks {
			if ts.Outcome == span.OutcomePreempted {
				preempted[sim.TaskID(ts.Task)] = true
			}
		}
	}

	flows := append([]*sim.Flow(nil), res.Flows...)
	sort.Slice(flows, func(i, j int) bool { return flows[i].ID < flows[j].ID })

	var b strings.Builder
	fmt.Fprintf(&b, "time 0 .. %s ms, one row per flow (%s)\n",
		trimMS(end), res.Scheduler)
	for _, f := range flows {
		row := []byte(strings.Repeat(" ", width))
		fill := func(from, to simtime.Time, mark byte) {
			for c := col(from); c <= col(to-1) && to > from; c++ {
				row[c] = mark
			}
		}
		// Lifetime background.
		lifeEnd := f.Finish
		if f.State == sim.FlowActive || lifeEnd == 0 {
			lifeEnd = end
		}
		fill(f.Arrival, lifeEnd, '.')
		// Revoked slice windows (granted by a plan, taken back by a
		// re-plan or kill) under the actual transmissions, which
		// overwrite them where bytes really moved.
		for _, iv := range revoked[int64(f.ID)] {
			fill(iv.Start, iv.End, '~')
		}
		// Transmission segments.
		for _, s := range res.Segments[f.ID] {
			fill(s.Interval.Start, s.Interval.End, rateMark(s.Rate, lineRate))
		}
		// Deadline and outcome markers overwrite.
		if f.Deadline < simtime.Infinity/2 {
			row[col(f.Deadline)] = '|'
		}
		switch {
		case f.OnTime():
			row[col(f.Finish)] = '$'
		case f.State == sim.FlowKilled && preempted[f.Task]:
			row[col(f.Finish)] = 'P'
		case f.State == sim.FlowKilled, f.State == sim.FlowDone:
			row[col(f.Finish)] = 'x'
		}
		fmt.Fprintf(&b, "f%-4d t%-3d %s\n", f.ID, f.Task, string(row))
	}
	b.WriteString("legend: # line rate, 1-9 tenths, . waiting, | deadline, $ on time, x late/killed\n")
	if opts.Spans != nil {
		b.WriteString("        ~ granted then revoked by re-plan/kill, P killed by preemption\n")
	}
	return b.String()
}

// rateMark maps a rate to '#' (full) or a digit for partial rates.
func rateMark(rate, lineRate float64) byte {
	if rate >= lineRate*0.95 {
		return '#'
	}
	tenths := int(rate / lineRate * 10)
	if tenths < 1 {
		tenths = 1
	}
	if tenths > 9 {
		tenths = 9
	}
	return byte('0' + tenths)
}

func trimMS(t simtime.Time) string {
	s := fmt.Sprintf("%.3f", simtime.ToMillis(t))
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}
