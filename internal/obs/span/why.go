package span

import (
	"fmt"
	"strconv"
	"strings"

	"taps/internal/simtime"
)

// WhyText renders a human-readable causal explanation of one task's fate:
// its lifecycle, every planning pass that decided it, and — for rejected
// or preempted tasks — the attribution chain naming the blocking links and
// the accepted tasks holding their slices.
func WhyText(t *Tree, task int64) string {
	ts := t.Task(task)
	if ts == nil {
		return fmt.Sprintf("task %d: no span recorded (the decision log holds no record of it)\n", task)
	}
	ms := func(v simtime.Time) string {
		if v >= simtime.Infinity {
			return "inf"
		}
		return fmt.Sprintf("%.3fms", simtime.ToMillis(v))
	}

	var b strings.Builder
	fmt.Fprintf(&b, "task %d — %s", task, strings.ToUpper(ts.Outcome.String()))
	switch {
	case ts.Outcome == OutcomePreempted && ts.PreemptedBy != NoTask:
		fmt.Fprintf(&b, " at %s by task %d", ms(ts.End), ts.PreemptedBy)
	case ts.Outcome != OutcomeRunning:
		fmt.Fprintf(&b, " at %s", ms(ts.End))
	}
	if ts.Reason != "" {
		fmt.Fprintf(&b, " (%s)", ts.Reason)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  arrival %s, deadline %s, %d flows\n", ms(ts.Arrival), ms(ts.Deadline), len(ts.Flows))

	// Planning passes that decided this task (triggered by it, or that
	// re-planned the fleet after its discard).
	for i := range t.Replans {
		rs := &t.Replans[i]
		if rs.Trigger != task {
			continue
		}
		missed := 0
		for _, p := range rs.Plans {
			if p.Missed {
				missed++
			}
		}
		fmt.Fprintf(&b, "  pass #%d (%s) at %s: %d flows planned, %d paths tried, %d missed\n",
			rs.Seq, rs.Kind, ms(rs.Time), rs.Flows, rs.PathsTried, missed)
	}

	if len(ts.Blocks) > 0 {
		fmt.Fprintf(&b, "  blocking links (no feasible window before the deadline):\n")
		for _, blk := range ts.Blocks {
			fmt.Fprintf(&b, "    %s: busy %s of %s in [%s, %s)",
				t.LinkName(blk.Link), ms(blk.Busy), ms(blk.Window.Len()),
				ms(blk.Window.Start), ms(blk.Window.End))
			if len(blk.Holders) > 0 {
				b.WriteString(" held by")
				for i, h := range blk.Holders {
					if i > 0 {
						b.WriteByte(',')
					}
					fmt.Fprintf(&b, " task %d (%s)", h.Task, ms(h.Busy))
				}
			}
			b.WriteByte('\n')
		}
	}

	// Per-flow final plan: what the planner last decided for each flow,
	// in any pass — a discarded task's last plan is the one that missed,
	// in a pass that was never committed.
	last := make(map[int64]*PlanSpan, len(ts.Flows))
	for i := range t.Replans {
		for j := range t.Replans[i].Plans {
			p := &t.Replans[i].Plans[j]
			last[p.Flow] = p
		}
	}
	for _, fid := range ts.Flows {
		fs := t.Flow(fid)
		label := fmt.Sprintf("f%d", fid)
		if fs != nil && fs.Label != "" {
			label += " " + fs.Label
		}
		p := last[fid]
		if p == nil {
			fmt.Fprintf(&b, "  %s: never planned\n", label)
			continue
		}
		verdict := "fits"
		if p.Missed {
			verdict = "MISSES"
		}
		fmt.Fprintf(&b, "  %s: %d candidates, path #%d (%d links), planned finish %s vs deadline %s — %s\n",
			label, p.Candidates, p.PathIndex, len(p.Path), ms(p.Finish), ms(p.Deadline), verdict)
	}
	return b.String()
}

// WhyTask resolves a -why argument to a task: a task ID, or "rejected" for
// the first discarded task of the tree — the first whose attribution chain
// names holders (occupancy by other tasks), else the first discarded at
// all, one doomed purely by its own infeasible flows.
func WhyTask(t *Tree, arg string) (int64, error) {
	if arg != "rejected" {
		id, err := strconv.ParseInt(arg, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("-why wants a task ID or \"rejected\": %w", err)
		}
		return id, nil
	}
	fallback := NoTask
	for i := range t.Tasks {
		ts := &t.Tasks[i]
		if ts.Outcome != OutcomeRejected && ts.Outcome != OutcomePreempted {
			continue
		}
		if fallback == NoTask {
			fallback = ts.Task
		}
		for _, blk := range ts.Blocks {
			if len(blk.Holders) > 0 {
				return ts.Task, nil
			}
		}
	}
	if fallback == NoTask {
		return 0, fmt.Errorf("-why rejected: no task was discarded")
	}
	return fallback, nil
}
