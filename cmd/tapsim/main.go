// Command tapsim regenerates the paper's figures (Figs. 1-3, 6-12 and the
// §VI testbed's Fig. 14) and the extensions as text tables; it is the one
// program that does.
//
// Usage:
//
//	tapsim -fig 6 -scale laptop
//	tapsim -fig all -scale bench
//	tapsim -fig 9 -schedulers TAPS,PDQ,FairSharing -seed 7
//	tapsim -fig 14 -scale paper
//
// Scales: "laptop" (default, minutes for all figures), "bench" (seconds),
// "paper" (§V-A full scale: 36,000-host tree; expect very long runs; Fig.
// 14 runs the literal §VI load).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"taps/internal/analysis"
	"taps/internal/experiments"
	"taps/internal/metrics"
	"taps/internal/obs"
	"taps/internal/obs/declog"
	"taps/internal/obs/span"
	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
	"taps/internal/workload"
)

// allFigures is what -fig all draws, in order. "report" is drawn only when
// named.
var allFigures = []string{"1", "2", "3", "6", "7", "8", "9", "10", "11", "12", "14", "bcube", "mix", "overhead"}

// formats are the values of -format.
var formats = []string{"table", "csv", "json", "chart"}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tapsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		figFlag   = flag.String("fig", "all", "comma-separated figures to regenerate: 1,2,3,6,7,8,9,10,11,12,14 (paper), bcube, mix, overhead (extensions), report, or all (every one but report)")
		scaleFlag = flag.String("scale", "laptop", "experiment scale: paper, laptop, bench")
		schedFlag = flag.String("schedulers", "", "comma-separated scheduler subset (default: all six)")
		seedFlag  = flag.Int64("seed", 0, "override the workload seed (0 keeps the scale default)")
		seedsFlag = flag.Int("seeds", 0, "average every sweep point over this many consecutive seeds")
		outFlag   = flag.String("o", "", "write output to this file instead of stdout")
		formatF   = flag.String("format", "table", "sweep output format: table, csv, json, chart")
		obsFlag   = flag.Bool("obs", false, "count controller decisions and time the planners; print a summary at exit")
		traceF    = flag.String("trace", "", "run one TAPS simulation at the scale's §V-A point with causal span tracing and write Chrome trace_event JSON to this file (skips -fig)")
		whyF      = flag.String("why", "", "run one TAPS simulation at the scale's §V-A point and explain this task's fate (a task ID, or \"rejected\" for the first discarded task; skips -fig)")
		declogF   = flag.String("declog", "", "run one TAPS simulation at the scale's §V-A point and write the binary decision log (flight recording) to this file, for tapsctl -replay (skips -fig)")
	)
	flag.Parse()

	scale, err := experiments.ScaleByName(*scaleFlag)
	if err != nil {
		return err
	}
	if *seedFlag != 0 {
		scale.Seed = *seedFlag
	}
	if *seedsFlag > 0 {
		scale.Seeds = *seedsFlag
	}
	schedulers := experiments.AllSchedulers()
	if *schedFlag != "" {
		schedulers = strings.Split(*schedFlag, ",")
		for _, s := range schedulers {
			if _, err := experiments.NewScheduler(s); err != nil {
				return err
			}
		}
	}
	figs := strings.Split(*figFlag, ",")
	if *figFlag == "all" {
		figs = allFigures
	}
	for _, fig := range figs {
		if fig != "report" && !slices.Contains(allFigures, fig) {
			return fmt.Errorf("unknown figure %q (known: %s, report, all)", fig, strings.Join(allFigures, ", "))
		}
	}
	if !slices.Contains(formats, *formatF) {
		return fmt.Errorf("unknown format %q (known: %s)", *formatF, strings.Join(formats, ", "))
	}

	dst := os.Stdout
	if *outFlag != "" {
		if dst, err = os.Create(*outFlag); err != nil {
			return err
		}
	}
	out := bufio.NewWriter(dst)
	if *traceF != "" || *whyF != "" || *declogF != "" {
		err = runSpan(out, scale, *traceF, *whyF, *declogF)
	} else {
		err = runFigures(out, figs, scale, schedulers, *formatF, *obsFlag)
	}
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	if dst != os.Stdout {
		if cerr := dst.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// runSpan runs the one TAPS simulation behind -trace, -why and -declog and
// writes what each asks for.
func runSpan(out io.Writer, scale experiments.Scale, tracePath, why, declogPath string) error {
	tree, err := spanRun(scale, declogPath)
	if err != nil {
		return err
	}
	if declogPath != "" {
		fmt.Fprintf(out, "# declog: %d tasks, %d flows, %d planning passes -> %s\n",
			len(tree.Tasks), len(tree.Flows), len(tree.Replans), declogPath)
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
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
			len(tree.Tasks), len(tree.Flows), len(tree.Replans), tracePath)
	}
	if why != "" {
		return printWhy(out, tree, why)
	}
	return nil
}

// runFigures draws figs in order, each followed by its timing line. The
// output is flushed after every figure, so a long run shows its progress
// and a failed write stops it.
func runFigures(out *bufio.Writer, figs []string, scale experiments.Scale, schedulers []string, format string, observe bool) error {
	var rec *obs.Recorder
	if observe {
		rec = obs.NewRecorder()
		experiments.Observe(rec)
	}
	for _, fig := range figs {
		start := time.Now()
		if err := runFigure(out, fig, scale, schedulers, format, rec); err != nil {
			return err
		}
		fmt.Fprintf(out, "# fig %s done in %v (scale=%s, seed=%d)\n\n",
			fig, time.Since(start).Round(time.Millisecond), scale.Name, scale.Seed)
		if err := out.Flush(); err != nil {
			return err
		}
	}
	if rec != nil {
		fmt.Fprint(out, rec.SummaryText())
	}
	return nil
}

func runFigure(out io.Writer, fig string, scale experiments.Scale, schedulers []string, format string, rec *obs.Recorder) error {
	switch fig {
	case "1", "2":
		var rs []experiments.MotivationResult
		var err error
		if fig == "1" {
			rs, err = experiments.Fig1(schedulers)
		} else {
			rs, err = experiments.Fig2(schedulers)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "## Fig. %s motivation example\n", fig)
		fmt.Fprintf(out, "%-14s %-14s %-14s\n", "scheduler", "flows_on_time", "tasks_completed")
		for _, r := range rs {
			fmt.Fprintf(out, "%-14s %-14d %-14d\n", r.Scheduler, r.FlowsOnTime, r.TasksCompleted)
		}
	case "3":
		rs, err := experiments.Fig3()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "## Fig. 3 global scheduling example")
		for _, name := range []string{"PDQ", "TAPS"} {
			fmt.Fprintf(out, "%-14s flows_on_time=%d\n", name, rs[name].FlowsOnTime)
		}
	case "6", "7", "8", "9", "10", "11", "12", "bcube":
		res, err := sweepFigure(fig, scale, schedulers)
		if err != nil {
			return err
		}
		if err := writeSweep(out, fig, res, format, scale.Seeds); err != nil {
			return err
		}
	case "report":
		return writeReports(out, scale, schedulers, rec)
	case "mix":
		res, err := experiments.ExtMix(scale, schedulers)
		if err != nil {
			return err
		}
		fmt.Fprint(out, res.Table(schedulers))
	case "14":
		res, err := experiments.Fig14(testbedSpec(scale))
		if err != nil {
			return err
		}
		fmt.Fprint(out, metrics.Chart("Fig. 14 effective application throughput (%)", res.Series, 64, 16))
		fmt.Fprintf(out, "TAPS tasks %d/%d (rejected %d), wasted %.1f MB; FairSharing tasks %d/%d, wasted %.1f MB\n",
			res.TAPS.TasksCompleted, res.TAPS.Tasks, res.TAPS.TasksRejected, res.TAPS.WastedBytes/1e6,
			res.FairSharing.TasksCompleted, res.FairSharing.Tasks, res.FairSharing.WastedBytes/1e6)
	case "overhead":
		points, err := experiments.ExtControlOverhead([]int{5, 10, 20, 40}, scale.Seed)
		if err != nil {
			return err
		}
		fmt.Fprint(out, experiments.OverheadTable(points))
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
	return nil
}

// testbedSpec is Fig. 14's load at scale: the literal §VI spec at the paper
// scale, the stress spec at every other, drawn with the scale's seed.
func testbedSpec(scale experiments.Scale) experiments.TestbedSpec {
	spec := experiments.StressTestbedSpec()
	if scale.Name == "paper" {
		spec = experiments.PaperTestbedSpec()
	}
	spec.Seed = scale.Seed
	return spec
}

// writeReports runs the default §V-A point for every scheduler with
// segment recording on and prints link-utilization / completion-time
// analytics (internal/analysis).
func writeReports(out io.Writer, scale experiments.Scale, schedulers []string, rec *obs.Recorder) error {
	g, r := topology.SingleRootedTree(scale.Tree)
	cr := topology.NewCachedRouting(r)
	specs := workload.Generate(g, workload.Spec{
		Tasks:            scale.Tasks,
		MeanFlowsPerTask: scale.FlowsPerTask,
		ArrivalRate:      scale.ArrivalRate,
		Seed:             scale.Seed,
	})
	for _, name := range schedulers {
		s, err := experiments.NewScheduler(name)
		if err != nil {
			return err
		}
		eng := sim.New(g, cr, s, specs, sim.Config{
			RecordSegments: true, MaxTime: simtime.Time(4e12), Sink: declog.Sink{Obs: rec},
		})
		res, err := eng.Run()
		if err != nil {
			return fmt.Errorf("report %s: %w", name, err)
		}
		report, err := analysis.Report(g, res, 8)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, report)
		tct := analysis.TCT(res)
		fmt.Fprintf(out, "TCT: n=%d mean=%.3fms p95=%.3fms\n\n",
			tct.Count, simtime.ToMillis(tct.Mean), simtime.ToMillis(tct.P95))
	}
	return nil
}

// fig6Run is the Fig. 6 sweep of this invocation once it has run: Fig. 8
// plots the wasted bandwidth of the same run, so -fig 6,8 (and -fig all)
// simulate it once.
var fig6Run *experiments.SweepResult

func sweepFigure(fig string, scale experiments.Scale, schedulers []string) (*experiments.SweepResult, error) {
	switch fig {
	case "6", "8":
		if fig6Run == nil {
			res, err := experiments.Fig6(scale, schedulers)
			if err != nil {
				return nil, err
			}
			fig6Run = res
		}
		view := *fig6Run
		view.Figure = "fig" + fig
		return &view, nil
	case "7":
		return experiments.Fig7(scale, schedulers)
	case "9":
		return experiments.Fig9(scale, schedulers)
	case "10":
		return experiments.Fig10(scale, schedulers)
	case "11":
		return experiments.Fig11(scale, schedulers)
	case "bcube":
		return experiments.ExtBCube(scale, schedulers)
	}
	return experiments.Fig12(scale, schedulers)
}

// figPanels selects which series groups a figure plots, with the aligned
// stddev group for each panel.
func figPanels(fig string, res *experiments.SweepResult) (titles []string, groups, stds [][]metrics.Series) {
	switch fig {
	case "6", "9":
		return []string{
				fmt.Sprintf("Fig. %s(a) application throughput (task-size ratio)", fig),
				fmt.Sprintf("Fig. %s(b) task completion ratio", fig),
			},
			[][]metrics.Series{res.AppThroughput, res.TaskCompletion},
			[][]metrics.Series{res.AppThroughputStd, res.TaskCompletionStd}
	case "8":
		return []string{"Fig. 8 wasted bandwidth ratio"},
			[][]metrics.Series{res.WastedBandwidth},
			[][]metrics.Series{res.WastedBandwidthStd}
	case "10":
		return []string{"Fig. 10 flow completion ratio (single-flow tasks)"},
			[][]metrics.Series{res.FlowCompletion},
			[][]metrics.Series{res.FlowCompletionStd}
	case "bcube":
		return []string{"Extension: BCube task completion ratio"},
			[][]metrics.Series{res.TaskCompletion},
			[][]metrics.Series{res.TaskCompletionStd}
	}
	return []string{fmt.Sprintf("Fig. %s task completion ratio", fig)},
		[][]metrics.Series{res.TaskCompletion},
		[][]metrics.Series{res.TaskCompletionStd}
}

func writeSweep(out io.Writer, fig string, res *experiments.SweepResult, format string, seeds int) error {
	titles, groups, stds := figPanels(fig, res)
	for i, group := range groups {
		switch format {
		case "table":
			if seeds > 1 {
				fmt.Fprint(out, metrics.TableWithError(titles[i], res.XLabel, group, stds[i]))
			} else {
				fmt.Fprint(out, metrics.Table(titles[i], res.XLabel, group))
			}
		case "csv":
			fmt.Fprintf(out, "# %s\n", titles[i])
			if err := metrics.WriteCSV(out, res.XLabel, group); err != nil {
				return err
			}
		case "json":
			if err := metrics.WriteJSON(out, res.XLabel, group); err != nil {
				return err
			}
		case "chart":
			fmt.Fprint(out, metrics.Chart(titles[i], group, 64, 16))
		default:
			return fmt.Errorf("unknown format %q", format)
		}
	}
	return nil
}
