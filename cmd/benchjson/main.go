// Command benchjson folds `go test -bench -benchmem` output into one of
// the repo's BENCH_*.json trajectory files, so every PR can record
// before/after planner performance in a diffable form.
//
// It reads benchmark output on stdin, extracts ns/op, B/op and allocs/op
// per benchmark, and writes them under the given section label, preserving
// every other section already in the file:
//
//	go test -run '^$' -bench . -benchmem ./internal/core | \
//	    go run ./cmd/benchjson -o BENCH_planner.json -label after
//
// `make bench-json` wires the planner micro-benchmarks and the Fig6/Fig7
// sweeps through this tool (see EXPERIMENTS.md).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Entry is one benchmark's measured cost. Units beyond the standard
// testing trio (e.g. tasks/sec and the p50/p99 stage latencies emitted by
// `tapsload -bench`) land in Extra keyed by their unit string.
type Entry struct {
	NsOp     float64            `json:"ns_op"`
	BOp      int64              `json:"b_op"`
	AllocsOp int64              `json:"allocs_op"`
	Extra    map[string]float64 `json:"extra,omitempty"`
}

// Section is one labeled measurement run (e.g. "baseline", "after").
type Section struct {
	Note       string           `json:"note,omitempty"`
	CPU        string           `json:"cpu,omitempty"`
	Benchmarks map[string]Entry `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "BENCH_planner.json", "output JSON file (merged in place)")
	label := flag.String("label", "after", "section label to write")
	note := flag.String("note", "", "free-form note stored in the section")
	flag.Parse()

	sec := Section{Note: *note, Benchmarks: map[string]Entry{}}
	procsOf := map[string]string{} // GOMAXPROCS suffix of the row that took each name
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			sec.CPU = strings.TrimSpace(cpu)
			continue
		}
		name, procs, e, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		// Under a -cpu list one benchmark prints a row per GOMAXPROCS: the
		// first keeps the bare name, the others keep their suffix.
		if taken, dup := procsOf[name]; dup && taken != procs {
			name += procs
		}
		procsOf[name] = procs
		sec.Benchmarks[name] = e
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if len(sec.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found on stdin"))
	}

	sections := map[string]Section{}
	if raw, err := os.ReadFile(*out); err == nil {
		if err := json.Unmarshal(raw, &sections); err != nil {
			fatal(fmt.Errorf("%s: %w", *out, err))
		}
	}
	sections[*label] = sec
	raw, err := json.MarshalIndent(sections, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s [%s]\n",
		len(sec.Benchmarks), *out, *label)
}

// parseBenchLine extracts one `BenchmarkName-P  N  x ns/op  y B/op  z
// allocs/op` line; the -P GOMAXPROCS suffix ("" at GOMAXPROCS 1) is split
// off the name.
func parseBenchLine(line string) (name, procs string, e Entry, ok bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", "", Entry{}, false
	}
	name = f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], name[i:]
		}
	}
	seen := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "ns/op":
			e.NsOp, seen = v, true
		case "B/op":
			e.BOp = int64(v)
		case "allocs/op":
			e.AllocsOp = int64(v)
		default:
			// Custom units (testing.B.ReportMetric style): keep them all.
			if e.Extra == nil {
				e.Extra = map[string]float64{}
			}
			e.Extra[f[i+1]] = v
			seen = true
		}
	}
	return name, procs, e, seen
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
