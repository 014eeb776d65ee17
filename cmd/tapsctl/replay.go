package main

import (
	"fmt"
	"io"
	"os"
	"sort"

	"taps/internal/obs/declog"
	"taps/internal/obs/span"
	"taps/internal/simtime"
)

// runReplay is tapsctl's offline time-travel mode: it folds a decision
// log (written by tapsctl -declog, tapsim -declog, or fetched from a live
// controller's GET /declog) into the reconstructed span forest, whose
// views give the plan state — no controller, no agents, no topology file
// needed; the log's Meta record carries the link names. untilUs > 0
// materializes the world as of that virtual instant instead of the end of
// the log.
func runReplay(out io.Writer, path string, untilUs int64, whyArg, traceTo string) error {
	recs, truncated, err := declog.ReadFile(path)
	if err != nil {
		return err
	}
	if truncated {
		fmt.Fprintf(os.Stderr, "tapsctl: %s: torn tail truncated (crash mid-write); replaying the valid prefix\n", path)
	}
	rp := declog.NewReplayer()
	if untilUs > 0 {
		rp.SetUntil(simtime.Time(untilUs))
	}
	rp.ApplyAll(recs)
	tree := rp.Tree()

	if traceTo != "" {
		f, err := os.Create(traceTo)
		if err != nil {
			return err
		}
		if err := span.WriteTraceEvents(f, tree); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "# trace: %d tasks, %d flows, %d planning passes -> %s\n",
			len(tree.Tasks), len(tree.Flows), len(tree.Replans), traceTo)
	}
	if whyArg != "" {
		task, err := span.WhyTask(tree, whyArg)
		if err != nil {
			return err
		}
		_, err = io.WriteString(out, span.WhyText(tree, task))
		return err
	}
	if traceTo == "" {
		writeReplaySummary(out, path, rp, tree, untilUs)
	}
	return nil
}

// writeReplaySummary prints the reconstructed world: decision totals from
// the span forest plus the in-flight plan state at the replay instant.
func writeReplaySummary(out io.Writer, path string, rp *declog.Replayer, tree *span.Tree, untilUs int64) {
	source := "?"
	if m := rp.Meta(); m != nil {
		source = m.Source
	}
	at := "end of log"
	if untilUs > 0 {
		at = fmt.Sprintf("t=%.3fms", simtime.ToMillis(simtime.Time(untilUs)))
	}
	fmt.Fprintf(out, "## replay of %s (source %s, %d records applied, %s)\n",
		path, source, rp.Applied(), at)
	var completed, rejected, preempted, killed, running int
	for i := range tree.Tasks {
		switch tree.Tasks[i].Outcome {
		case span.OutcomeCompleted:
			completed++
		case span.OutcomeRejected:
			rejected++
		case span.OutcomePreempted:
			preempted++
		case span.OutcomeKilled:
			killed++
		case span.OutcomeRunning:
			running++
		}
	}
	fmt.Fprintf(out, "tasks: %d seen — %d completed, %d rejected, %d preempted, %d killed, %d in flight\n",
		len(tree.Tasks), completed, rejected, preempted, killed, running)
	fmt.Fprintf(out, "flows: %d seen, %d planning passes, %d link failures\n",
		len(tree.Flows), len(tree.Replans), len(tree.LinkDowns))

	var accepted []int64
	for i := range tree.Tasks {
		if tree.Tasks[i].Accepted() {
			accepted = append(accepted, tree.Tasks[i].Task)
		}
	}
	sort.Slice(accepted, func(i, j int) bool { return accepted[i] < accepted[j] })
	pending := 0
	for _, done := range tree.FlowsInPlay() {
		if !done {
			pending++
		}
	}
	_, occ := tree.Plan()
	fmt.Fprintf(out, "plan state: %d tasks accepted %v, %d pending flows, %d links occupied\n",
		len(accepted), accepted, pending, len(occ))
}
