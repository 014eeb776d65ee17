// Package maporder is a tapslint fixture: order-dependent map iteration in
// deterministic code, plus the idioms that are deliberately NOT flagged.
package maporder

import (
	"fmt"
	"sort"

	"taps/internal/obs/declog"
)

// collectUnsorted appends in map order and never sorts — a violation.
func collectUnsorted(m map[int]string) []string {
	var out []string
	for _, v := range m { // want "appends to out in map order"
		out = append(out, v)
	}
	return out
}

// collectSorted is the collect-then-sort idiom: the append is exempt
// because the slice is sorted before anyone observes its order.
func collectSorted(m map[int]string) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// pick feeds a tie-break from map order — a violation.
func pick(m map[int]bool) int {
	var winner int
	for k := range m { // want "map iteration order feeds"
		winner = k
	}
	return winner
}

// firstError returns a range-derived value: which key errors first depends
// on map order — a violation.
func firstError(m map[string]int) error {
	for name, v := range m { // want "returns a value derived"
		if v < 0 {
			return fmt.Errorf("bad %s", name)
		}
	}
	return nil
}

// dump serializes in map order — a violation.
func dump(m map[string]int) {
	for k, v := range m { // want "writes output"
		fmt.Printf("%s=%d\n", k, v)
	}
}

// emit logs decision records in map order — a violation.
func emit(m map[int64]int64, sink *declog.Sink) {
	for task, deadline := range m { // want "emits decision records"
		sink.Emit(&declog.Record{Kind: declog.KindTask, Task: task, Deadline: deadline})
	}
}

type counter struct{ n int }

func (c *counter) Emit(*declog.Record) { c.n++ }

// count calls an Emit that is not the sink's: it only counts, so the
// order cannot show — legal.
func count(m map[int]*declog.Record, c *counter) {
	for _, r := range m {
		c.Emit(r)
	}
}

// accumulate is commutative accumulation — order-independent, legal.
func accumulate(m map[int]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum
}

// normalize stores per key — order-independent, legal.
func normalize(m map[int]float64) {
	for k, v := range m {
		m[k] = v / 2
	}
}

// maxReduce assigns an outer variable only under a guard — the classic
// max-reduction, order-independent, legal.
func maxReduce(m map[int]float64) float64 {
	worst := 0.0
	for _, v := range m {
		if v > worst {
			worst = v
		}
	}
	return worst
}

// suppressed documents why the site is safe.
func suppressed(m map[int]bool) int {
	var w int
	//taps:allow maporder fixture: map holds exactly one key by construction
	for k := range m {
		w = k
	}
	return w
}
