// Command tapsbench is the repository's benchmark: four workloads, each
// measured end to end by a timed run (tracing off) and layer by layer by a
// separate traced run. bench/README.md says why each workload exists, what
// the time model can and cannot show, and which end-to-end metric each
// per-layer metric should move.
//
//	bash bench/run.sh                                   # every workload, timed
//	bash bench/run.sh --workload ctl_storm --trace 1    # one workload, traced
//	bash bench/run.sh -compare a.jsonl b.jsonl          # two result sets
//
// The last line of standard output of every run is one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// rounds is how many times a timed run sets up and measures. Every round
// builds its fixture from nothing, from the same seed, and measures
// seconds/rounds, so the rounds of one run differ only by what else the
// machine was doing. On a shared box that disturbance only ever adds time:
// the round with the highest throughput is the least disturbed, and a run
// reports that round's throughput and latency quantiles. setup_s is the
// median of the rounds' set-ups.
const rounds = 3

// fullLength is the shortest measured phase (seconds) to which the harness
// self-check applies; shorter runs are smoke runs.
const fullLength = 10

// A full-length run is not reported when its rounds together have fewer
// samples than minSamples or its set-up is in the noise: the workload is
// mis-sized for the program. The floor is low enough that a box slowed
// three-fold by its neighbours still reports, as an outlier.
const (
	minSamples = 100
	minSetup   = 1 * time.Second
)

// roundResult is one set-up and one measured phase.
type roundResult struct {
	setup, elapsed    time.Duration
	lat               []time.Duration // successful ops only
	attempted, failed int
	accepts, rejects  int           // decisions of the measured phase (ctl workloads)
	harness           time.Duration // measured-phase time the driver did not spend waiting on the program
	warnings          []string
}

// tracedResult is one traced run.
type tracedResult struct {
	values    map[string]float64
	attempted int
	spanFile  string
	warnings  []string
}

// workloadRunner is what the four workloads have in common. seed selects
// the generated inputs; outDir is where a workload may leave files.
type workloadRunner interface {
	timed(seed int64, measure time.Duration, outDir string) (roundResult, error)
	traced(seed int64, outDir string) (tracedResult, error)
}

// workloadNames is the order workloads run and print in.
var workloadNames = []string{"ctl_fanout", "ctl_liveflows", "ctl_storm", "sim_sweep"}

// workloads returns the benchmark's fixed workload table. README.md gives
// the reason for every number in it.
func workloads() map[string]workloadRunner {
	return map[string]workloadRunner{
		"ctl_fanout": &ctlWorkload{
			name: "ctl_fanout", k: 4, sinks: 127, lifetime: 16, warmup: 60, tracedOps: 120,
			flowsLo: 2, flowsHi: 2, sizeLo: 100e3, sizeHi: 150e3,
			deadlineLo: 30e6, deadlineHi: 90e6, strictOverlap: true,
		},
		"ctl_liveflows": &ctlWorkload{
			name: "ctl_liveflows", k: 16, incremental: true, lifetime: 128, warmup: 160, tracedOps: 300,
			flowsLo: 12, flowsHi: 20, sizeLo: 100e3, sizeHi: 150e3,
			deadlineLo: 1e6, deadlineHi: 3e6, advance: 5e3, strictOverlap: true,
		},
		"ctl_storm": &ctlWorkload{
			name: "ctl_storm", k: 4, declog: true, lifetime: 32, warmup: 1500, tracedOps: 2000,
			flowsLo: 1, flowsHi: 3, sizeLo: 500e3, sizeHi: 2e6,
			deadlineLo: 20e3, deadlineHi: 60e3,
		},
		"sim_sweep": &sweepWorkload{name: "sim_sweep", corpus: 40, tracedOps: 80},
	}
}

// endToEnd and perLayer are the metrics of the benchmark, in print order.
// BENCHMARK.json lists the same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
}

var perLayer = []metricDef{
	{"netctl.decode_us", "us"},
	{"netctl.lock_wait_us", "us"},
	{"netctl.plan_us", "us"},
	{"netctl.declog_sync_us", "us"},
	{"netctl.broadcast_us", "us"},
	{"netctl.total_us", "us"},
	{"netctl.other_us", "us"},
	{"netctl.accepts", "count"},
	{"netctl.rejects", "count"},
	{"netctl.overlap_violation_ops", "count"},
	{"wire.frames_out", "count"},
	{"wire.bytes_out", "B"},
	{"wire.write_us", "us"},
	{"wire.encode_us", "us"},
	{"wire.useful_frame_ratio", "ratio"},
	{"wire.ramp_slope_frames_per_op", "frames/op"},
	{"core.delta_reuse_ratio", "ratio"},
	{"core.delta_dirty_frac", "ratio"},
	{"obs.declog_records", "count"},
	{"obs.declog_bytes", "B"},
	{"topology.paths_calls", "count"},
	{"topology.paths_us", "us"},
	{"sched.FairSharing_ms", "ms"},
	{"sched.D3_ms", "ms"},
	{"sched.PDQ_ms", "ms"},
	{"sched.Baraat_ms", "ms"},
	{"sched.Varys_ms", "ms"},
	{"sched.TAPS_ms", "ms"},
	{"core.on_arrival_ms", "ms"},
	{"core.rates_ms", "ms"},
	{"core.replans", "count"},
	{"core.fast_admits", "count"},
	{"sim.engine_self_ms", "ms"},
	{"workload.generate_ms", "ms"},
	{"experiments.residual_ms", "ms"},
	{"experiments.corpus_skipped", "count"},
	{"driver.rtt_overhead_us", "us"},
	{"driver.harness_us", "us"},
	{"driver.op_p99_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"go.allocs", "allocs/op"},
	{"go.alloc_kb", "kB/op"},
	{"go.gc_pause_us", "us"},
	{"go.heap_end_mb", "MB"},
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric of the benchmark; the tables in main.go list
// the same names BENCHMARK.json does (the smoke test holds them together).
type metricDef struct {
	name, unit string
}

// fill returns a metric set holding every definition, zero where the
// workload has no such layer.
func fill(defs []metricDef, got map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: got[d.name], Unit: d.unit}
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is not in the benchmark's tables", name)
		}
	}
	return out, nil
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errRefused marks a run the harness will not report: too few samples or a
// set-up too short to measure (exit code 2).
var errRefused = errors.New("refusing to report")

// runTimed makes the timed run of one workload: rounds set-ups and measured
// phases, every round printed, the least disturbed one reported.
func runTimed(w io.Writer, name string, wl workloadRunner, seed int64, seconds float64, outDir string) (result, error) {
	var res result
	measure := time.Duration(seconds / rounds * float64(time.Second))
	var setup []float64
	var best map[string]float64
	var samples, bestSamples int
	var harness time.Duration
	for r := 0; r < rounds; r++ {
		rr, err := wl.timed(seed, measure, outDir)
		if err != nil {
			return res, fmt.Errorf("%s round %d: %w", name, r, err)
		}
		for _, msg := range rr.warnings {
			fmt.Fprintf(w, "%s warning: %s\n", name, msg)
		}
		res.Attempted += rr.attempted
		res.Failed += rr.failed
		harness += rr.harness
		samples += len(rr.lat)
		if len(rr.lat) == 0 {
			return res, fmt.Errorf("%s round %d: no op succeeded", name, r)
		}
		ms := millis(rr.lat)
		got := map[string]float64{
			"ops_per_s": float64(len(rr.lat)) / rr.elapsed.Seconds(),
			"op_p50_ms": quantile(ms, 0.5),
			"op_p90_ms": quantile(ms, 0.9),
		}
		setup = append(setup, rr.setup.Seconds())
		fmt.Fprintf(w, "%s round %d: setup %.4f s, %.4f ops/s, p50 %.4f ms, p90 %.4f ms, %d ops\n", name, r,
			rr.setup.Seconds(), got["ops_per_s"], got["op_p50_ms"], got["op_p90_ms"], len(rr.lat))
		if best == nil || got["ops_per_s"] > best["ops_per_s"] {
			best, bestSamples = got, len(rr.lat)
		}
	}
	best["setup_s"] = median(setup)
	var err error
	if res.Metrics, err = fill(endToEnd, best); err != nil {
		return res, err
	}
	for _, d := range endToEnd {
		n := bestSamples
		if d.name == "setup_s" {
			n = rounds
		}
		fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", name, d.name, best[d.name], d.unit, n)
	}
	fmt.Fprintf(w, "%s ops_attempted %d count\n%s ops_failed %d count\n", name, res.Attempted, name, res.Failed)
	fmt.Fprintf(w, "%s driver.harness_us %.6g us n=%d\n", name,
		float64(harness)/1e3/float64(res.Attempted), res.Attempted)
	if seconds >= fullLength {
		if samples < minSamples {
			return res, fmt.Errorf("%w: %s gave %d samples, need %d", errRefused, name, samples, minSamples)
		}
		if s := best["setup_s"]; s < minSetup.Seconds() {
			return res, fmt.Errorf("%w: %s set up in %.3f s, need %v", errRefused, name, s, minSetup)
		}
	}
	return res, nil
}

// runTraced makes the traced run of one workload.
func runTraced(w io.Writer, name string, wl workloadRunner, seed int64, outDir string) (result, error) {
	var res result
	tr, err := wl.traced(seed, outDir)
	if err != nil {
		return res, fmt.Errorf("%s traced: %w", name, err)
	}
	for _, msg := range tr.warnings {
		fmt.Fprintf(w, "%s warning: %s\n", name, msg)
	}
	res.Attempted = tr.attempted
	if res.Metrics, err = fill(perLayer, tr.values); err != nil {
		return res, err
	}
	for _, d := range perLayer {
		if _, ok := tr.values[d.name]; ok {
			fmt.Fprintf(w, "%s %s %.6g %s\n", name, d.name, tr.values[d.name], d.unit)
		}
	}
	fmt.Fprintf(w, "%s spans %s\n", name, tr.spanFile)
	return res, nil
}

// record is one line of a result-set file (-append, -compare).
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	var (
		workload  = flag.String("workload", "all", "workload to run: all, ctl_fanout, ctl_liveflows, ctl_storm or sim_sweep")
		seed      = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds   = flag.Float64("seconds", 21, "measured seconds of a timed run, split over its rounds")
		trace     = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics and a span file")
		outDir    = flag.String("out", "bench/out", "directory for span files and the storm workload's decision log")
		appendTo  = flag.String("append", "", "also append each workload's result to this result-set file")
		compare   = flag.Bool("compare", false, "compare two result-set files given as arguments against -benchmark's bounds")
		benchmark = flag.String("benchmark", "BENCHMARK.json", "benchmark definition -compare takes bounds from")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: tapsbench -compare a.jsonl b.jsonl")
			os.Exit(2)
		}
		ok, err := compareSets(os.Stdout, *benchmark, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "tapsbench:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	table := workloads()
	names := workloadNames
	if *workload != "all" {
		if table[*workload] == nil {
			fmt.Fprintf(os.Stderr, "tapsbench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		names = []string{*workload}
	}
	for _, name := range names {
		var res result
		var err error
		if *trace == 1 {
			res, err = runTraced(os.Stdout, name, table[name], *seed, *outDir)
		} else {
			res, err = runTimed(os.Stdout, name, table[name], *seed, *seconds, *outDir)
		}
		if errors.Is(err, errRefused) {
			fmt.Fprintln(os.Stderr, "tapsbench:", err)
			os.Exit(2)
		}
		if err != nil {
			// A failed check: no result line, non-zero exit.
			fmt.Fprintln(os.Stderr, "tapsbench: FAILED:", err)
			os.Exit(1)
		}
		if *appendTo != "" {
			if err := appendRecord(*appendTo, record{name, *seed, *trace, res}); err != nil {
				fmt.Fprintln(os.Stderr, "tapsbench:", err)
				os.Exit(1)
			}
		}
		res.Correct = res.Failed == 0
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tapsbench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			os.Exit(1)
		}
	}
}
