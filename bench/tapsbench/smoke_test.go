package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// smokeWorkloads is the benchmark's workload table shrunk until all four
// workloads, timed and traced, fit in a few seconds under the race detector.
func smokeWorkloads() map[string]workloadRunner {
	table := workloads()
	for _, wl := range table {
		switch w := wl.(type) {
		case *ctlWorkload:
			w.sinks = min(w.sinks, 15)
			w.k = min(w.k, 8)
			w.lifetime = min(w.lifetime, 16)
			w.warmup /= 10
			w.tracedOps /= 20
		case *sweepWorkload:
			w.corpus, w.tracedOps = 2, 2
		}
	}
	return table
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	lineRE = regexp.MustCompile(`^(\S+) (\S+) (\S+) (\S+)(?: n=(\d+))?$`)
)

// TestBenchmarkFileMatchesTables holds BENCHMARK.json and the tables in
// main.go together and checks the limits the benchmark contract sets.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf, err := readBenchmark("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", names, workloadNames)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("workload name %q is malformed or repeated", n)
		}
		seen[n] = true
	}
	check := func(kind string, file []benchMetric, table []metricDef) {
		if len(file) != len(table) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the harness %d", kind, len(file), len(table))
		}
		units := map[string]string{}
		for _, d := range table {
			units[d.name] = d.unit
		}
		for _, m := range file {
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s metric %q (%q) is malformed or repeated", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
			if units[m.Name] != m.Unit {
				t.Errorf("%s metric %q: unit %q in BENCHMARK.json, %q in the harness", kind, m.Name, m.Unit, units[m.Name])
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s metric %q: better = %q", kind, m.Name, m.Better)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v", m.Name, m.Bound)
		}
	}
}

// printed parses the harness's "workload metric value unit [n=N]" lines.
func printed(t *testing.T, out, workload string) map[string]int {
	t.Helper()
	count := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		m := lineRE.FindStringSubmatch(line)
		if m == nil || strings.HasPrefix(line, workload+" warning:") || m[2] == "spans" {
			continue
		}
		if m[1] != workload {
			t.Errorf("line %q is not about %s", line, workload)
		}
		if !unitRE.MatchString(m[4]) {
			t.Errorf("line %q has no unit", line)
		}
		if m[5] == "0" {
			t.Errorf("line %q reports no samples", line)
		}
		count[m[2]]++
	}
	return count
}

// TestSmoke runs every workload, timed and traced, at a fraction of its
// size: every end-to-end metric is printed exactly once with a unit and a
// sample count, every per-layer metric is printed by some workload, and
// both result lines carry exactly the metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	table := smokeWorkloads()
	layerSeen := map[string]bool{}
	for _, name := range workloadNames {
		dir := t.TempDir()
		var out bytes.Buffer
		res, err := runTimed(&out, name, table[name], 1, 0.6, dir)
		if err != nil {
			t.Fatalf("%s timed: %v\n%s", name, err, out.String())
		}
		count := printed(t, out.String(), name)
		for _, d := range endToEnd {
			if count[d.name] != 1 {
				t.Errorf("%s: %s printed %d times\n%s", name, d.name, count[d.name], out.String())
			}
			if m, ok := res.Metrics[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
				t.Errorf("%s: result metric %s = %+v", name, d.name, m)
			}
		}
		if len(res.Metrics) != len(endToEnd) || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: timed result %+v", name, res)
		}

		out.Reset()
		res, err = runTraced(&out, name, table[name], 1, dir)
		if err != nil {
			t.Fatalf("%s traced: %v\n%s", name, err, out.String())
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: traced result has %d metrics, want %d", name, len(res.Metrics), len(perLayer))
		}
		for metric, n := range printed(t, out.String(), name) {
			if n != 1 {
				t.Errorf("%s: %s printed %d times", name, metric, n)
			}
			layerSeen[metric] = true
		}
		if !strings.Contains(out.String(), "trace_"+name+".json") {
			t.Errorf("%s: no span file reported\n%s", name, out.String())
		}
	}
	for _, d := range perLayer {
		if !layerSeen[d.name] {
			t.Errorf("per-layer metric %s is printed by no workload", d.name)
		}
	}
}
