package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmark(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

func readSet(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// compareSets prints one row per (workload, end-to-end metric) of two
// result sets: each side's median and quartile spread, the change from a to
// b, and a mark. "unresolved" means a side's spread is wider than the bound,
// so the sets cannot tell a change of that size from noise; "outside" means
// b's median is worse than a's by more than the bound; anything else is
// "within". Counts of traced runs must repeat exactly for a given seed. It
// reports whether every row is within and every count repeats.
func compareSets(w io.Writer, benchPath, pathA, pathB string) (bool, error) {
	bf, err := readBenchmark(benchPath)
	if err != nil {
		return false, err
	}
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	values := func(recs []record, workload, name string, trace int) []float64 {
		var out []float64
		for _, r := range recs {
			if m, ok := r.Result.Metrics[name]; ok && r.Workload == workload && r.Trace == trace {
				out = append(out, m.Value)
			}
		}
		return out
	}
	ok := true
	fmt.Fprintf(w, "%-14s %-10s %12s %7s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "median(a)", "iqr%", "median(b)", "iqr%", "change%", "bound%", "mark")
	for _, wl := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			va, vb := values(a, wl.Name, m.Name, 0), values(b, wl.Name, m.Name, 0)
			if len(va) < 2 || len(vb) < 2 {
				fmt.Fprintf(w, "%-14s %-10s needs two runs a side, has %d and %d  unresolved\n",
					wl.Name, m.Name, len(va), len(vb))
				ok = false
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			change := (b2 - a2) / a2
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			mark := "within"
			switch {
			case spreadA > m.Bound || spreadB > m.Bound:
				mark = "unresolved"
			case worse > m.Bound:
				mark = "outside"
			}
			if mark != "within" {
				ok = false
			}
			fmt.Fprintf(w, "%-14s %-10s %12.6g %7.2f %12.6g %7.2f %+8.2f %6.0f  %s\n",
				wl.Name, m.Name, a2, spreadA*100, b2, spreadB*100, change*100, m.Bound*100, mark)
		}
	}

	// Counts of the traced run: one value per (workload, seed, metric).
	type key struct {
		workload string
		seed     int64
	}
	first := map[key]map[string]float64{}
	differ := map[string]bool{}
	traced := 0
	for _, r := range append(append([]record(nil), a...), b...) {
		if r.Trace != 1 {
			continue
		}
		traced++
		k := key{r.Workload, r.Seed}
		if first[k] == nil {
			first[k] = map[string]float64{}
		}
		for _, m := range bf.PerLayer {
			if m.Unit != "count" && m.Unit != "B" {
				continue
			}
			v := r.Result.Metrics[m.Name].Value
			if want, seen := first[k][m.Name]; !seen {
				first[k][m.Name] = v
			} else if want != v {
				differ[fmt.Sprintf("%s seed %d %s: %v and %v", r.Workload, r.Seed, m.Name, want, v)] = true
			}
		}
	}
	if traced > 0 {
		if len(differ) == 0 {
			fmt.Fprintf(w, "counts of %d traced runs repeat exactly per (workload, seed)\n", traced)
		} else {
			ok = false
			rows := make([]string, 0, len(differ))
			for d := range differ {
				rows = append(rows, d)
			}
			sort.Strings(rows)
			for _, d := range rows {
				fmt.Fprintf(w, "count does not repeat: %s\n", d)
			}
		}
	}
	return ok, nil
}
