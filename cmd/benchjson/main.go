// Command benchjson folds `go test -bench -benchmem` output into one of
// the repo's BENCH_*.json trajectory files, so every PR can record
// before/after planner performance in a diffable form.
//
// It reads benchmark output on stdin, extracts ns/op, B/op and allocs/op
// per benchmark, and writes them under the given section label, preserving
// every other section already in the file. A benchmark that prints several
// rows (a -count N run) is kept as the median of each unit over its rows,
// with the row count and the interquartile range of ns/op beside it:
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
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Entry is one benchmark's measured cost: the median of each unit over the
// benchmark's rows. Units beyond the standard testing trio (e.g. tasks/sec
// and the p50/p99 stage latencies emitted by `tapsload -bench`) land in
// Extra keyed by their unit string. N is the number of rows and IQRNsOp
// the interquartile range of their ns/op (0 for a single row); sections
// written before either existed have neither.
type Entry struct {
	NsOp     float64            `json:"ns_op"`
	BOp      int64              `json:"b_op"`
	AllocsOp int64              `json:"allocs_op"`
	Extra    map[string]float64 `json:"extra,omitempty"`
	N        int                `json:"n,omitempty"`
	IQRNsOp  float64            `json:"iqr_ns_op,omitempty"`
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

	sec, err := readSection(os.Stdin)
	if err != nil {
		fatal(err)
	}
	sec.Note = *note

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

// readSection folds `go test -bench` output into a section: one entry per
// benchmark, each the medians over that benchmark's rows.
func readSection(r io.Reader) (Section, error) {
	sec := Section{Benchmarks: map[string]Entry{}}
	rows := map[string][]Entry{}
	procsOf := map[string]string{} // GOMAXPROCS suffix of the rows that took each name
	sc := bufio.NewScanner(r)
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
		rows[name] = append(rows[name], e)
	}
	if err := sc.Err(); err != nil {
		return sec, err
	}
	if len(rows) == 0 {
		return sec, fmt.Errorf("no benchmark lines found on stdin")
	}
	for name, es := range rows {
		sec.Benchmarks[name] = fold(es)
	}
	return sec, nil
}

// fold reduces one benchmark's rows to their medians, unit by unit.
func fold(rows []Entry) Entry {
	of := func(unit func(Entry) float64) []float64 {
		vs := make([]float64, len(rows))
		for i, e := range rows {
			vs[i] = unit(e)
		}
		slices.Sort(vs)
		return vs
	}
	ns := of(func(e Entry) float64 { return e.NsOp })
	e := Entry{
		NsOp:     quantile(ns, 0.5),
		BOp:      int64(math.Round(quantile(of(func(e Entry) float64 { return float64(e.BOp) }), 0.5))),
		AllocsOp: int64(math.Round(quantile(of(func(e Entry) float64 { return float64(e.AllocsOp) }), 0.5))),
		N:        len(rows),
		IQRNsOp:  quantile(ns, 0.75) - quantile(ns, 0.25),
	}
	for _, row := range rows {
		for unit := range row.Extra {
			if e.Extra == nil {
				e.Extra = map[string]float64{}
			}
			e.Extra[unit] = quantile(of(func(e Entry) float64 { return e.Extra[unit] }), 0.5)
		}
	}
	return e
}

// quantile interpolates linearly between the closest ranks of sorted vs.
func quantile(vs []float64, q float64) float64 {
	pos := q * float64(len(vs)-1)
	lo := int(pos)
	if lo+1 >= len(vs) {
		return vs[lo]
	}
	return vs[lo] + (pos-float64(lo))*(vs[lo+1]-vs[lo])
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
