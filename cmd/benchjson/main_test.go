package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestCountRunKeepsEveryRow: the three rows of a -count 3 run fold into
// one entry of medians, with the row count and the interquartile range of
// ns/op; a benchmark with one row keeps its values and an IQR of 0.
func TestCountRunKeepsEveryRow(t *testing.T) {
	const out = `goos: linux
cpu: Test CPU @ 2.00GHz
BenchmarkPlanChurn-2   	     100	  12000000 ns/op	  228000 B/op	    2391 allocs/op
BenchmarkPlanChurn-2   	     100	  10000000 ns/op	  226000 B/op	    2390 allocs/op
BenchmarkPlanChurn-2   	     100	  14000000 ns/op	  227000 B/op	    2395 allocs/op
BenchmarkRun-2   	       5	   9000 ns/op	        40.0 tasks/sec
PASS
`
	sec, err := readSection(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Entry{
		"BenchmarkPlanChurn": {NsOp: 12e6, BOp: 227000, AllocsOp: 2391, N: 3, IQRNsOp: 2e6},
		"BenchmarkRun":       {NsOp: 9000, Extra: map[string]float64{"tasks/sec": 40}, N: 1},
	}
	if !reflect.DeepEqual(sec.Benchmarks, want) {
		t.Fatalf("got %+v, want %+v", sec.Benchmarks, want)
	}
	if sec.CPU != "Test CPU @ 2.00GHz" {
		t.Fatalf("cpu = %q", sec.CPU)
	}
}

// TestCPUListKeepsSuffixes: under -cpu 1,2 with -count 2 the rows of each
// GOMAXPROCS fold separately, the first under the bare name.
func TestCPUListKeepsSuffixes(t *testing.T) {
	const out = `BenchmarkFig6 	 1	 100 ns/op
BenchmarkFig6-2 	 1	 60 ns/op
BenchmarkFig6 	 1	 120 ns/op
BenchmarkFig6-2 	 1	 80 ns/op
`
	sec, err := readSection(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if got := sec.Benchmarks["BenchmarkFig6"]; got.NsOp != 110 || got.N != 2 || got.IQRNsOp != 10 {
		t.Fatalf("BenchmarkFig6 = %+v", got)
	}
	if got := sec.Benchmarks["BenchmarkFig6-2"]; got.NsOp != 70 || got.N != 2 {
		t.Fatalf("BenchmarkFig6-2 = %+v", got)
	}
}

func TestNoBenchmarkLinesIsAnError(t *testing.T) {
	if _, err := readSection(strings.NewReader("PASS\n")); err == nil {
		t.Fatal("no error for output without benchmark lines")
	}
}
