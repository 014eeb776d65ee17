package simtime

import (
	"fmt"
	"math/rand"
	"testing"
)

func randomSet(n int, seed int64) IntervalSet {
	rng := rand.New(rand.NewSource(seed))
	var s IntervalSet
	for i := 0; i < n; i++ {
		start := Time(rng.Intn(1_000_000))
		s.Add(Interval{start, start + Time(1+rng.Intn(500))})
	}
	return s
}

func BenchmarkAddSequential(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var s IntervalSet
		for j := Time(0); j < 256; j++ {
			s.Add(Interval{j * 10, j*10 + 5})
		}
	}
}

func BenchmarkAddRandom(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		randomSet(256, int64(i))
	}
}

// BenchmarkFirstFit is Alg. 3 for one candidate path of 1, 6 (a fat-tree
// path) or 12 links, each busy about an eighth of the time. "never" sweeps
// with no bound until the units fit; "early" is the planner's beaten
// candidate, abandoned at the first gap from which it can no longer finish
// before the best so far.
func BenchmarkFirstFit(b *testing.B) {
	for _, n := range []int{1, 6, 12} {
		sets := make([]IntervalSet, n)
		for i := range sets {
			sets[i] = randomSet(512, int64(i+1))
		}
		_, finish, _ := oracleFirstFit(0, 50_000, Infinity, sets...)
		for _, bound := range []struct {
			name   string
			before Time
		}{{"never", Infinity}, {"early", finish / 8}} {
			b.Run(fmt.Sprintf("sets=%d/bound=%s", n, bound.name), func(b *testing.B) {
				var dst IntervalSet
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					FirstFit(&dst, Time(i%1000), 50_000, bound.before, sets...)
				}
			})
		}
	}
}

func BenchmarkContains(b *testing.B) {
	s := randomSet(512, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Contains(Time(i % 1_000_000))
	}
}
