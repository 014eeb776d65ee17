package simtime

import (
	"math/rand"
	"testing"
)

// The planner's steady-state loop runs one FirstFit sweep per candidate
// path with a warm per-planner destination. This test pins the allocation
// contract: with a warm destination, or none, the sweep allocates nothing
// at all.

func allocSet(rng *rand.Rand, n int) IntervalSet {
	var s IntervalSet
	for i := 0; i < n; i++ {
		start := Time(rng.Intn(100_000))
		s.Add(Interval{start, start + Time(1+rng.Intn(300))})
	}
	return s
}

func TestFirstFitZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sets := []IntervalSet{allocSet(rng, 64), allocSet(rng, 64), allocSet(rng, 64), allocSet(rng, 64)}
	var dst IntervalSet
	FirstFit(&dst, 50, 10_000, Infinity, sets...) // warm the destination
	for name, d := range map[string]*IntervalSet{"dst": &dst, "nodst": nil} {
		if avg := testing.AllocsPerRun(100, func() {
			if _, ok := FirstFit(d, 50, 10_000, Infinity, sets...); !ok {
				t.Fatal("sweep failed")
			}
		}); avg != 0 {
			t.Errorf("%s: FirstFit allocates %.1f/op, want 0", name, avg)
		}
	}
}

func TestGCBeforeZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := allocSet(rng, 256)
	if avg := testing.AllocsPerRun(100, func() {
		s.GCBefore(50_000)
	}); avg != 0 {
		t.Fatalf("GCBefore allocates %.1f/op, want 0", avg)
	}
}

// TestAddInPlace pins that Add no longer allocates a fresh slice per insert:
// inserting into a set whose backing array already has room is free.
func TestAddInPlace(t *testing.T) {
	var s IntervalSet
	for i := 0; i < 512; i++ {
		s.Add(Interval{Time(i) * 10, Time(i)*10 + 4}) // pre-grow the backing array
	}
	if avg := testing.AllocsPerRun(100, func() {
		s.Add(Interval{1, 3}) // merges into an existing run, no growth
	}); avg != 0 {
		t.Fatalf("Add allocates %.1f/op on a warm set, want 0", avg)
	}
}

// TestUnionInPlaceZeroAllocs pins that a union into a set whose backing
// array already has room for the result allocates nothing: the occupancy
// union the kernel rebuilds per link reuses its storage.
func TestUnionInPlaceZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := allocSet(rng, 128), allocSet(rng, 128)
	var s IntervalSet
	s.ivs = append(s.ivs, a.ivs...)
	s.UnionInPlace(&b) // grow the backing array to the union's size
	want := len(s.ivs)
	if avg := testing.AllocsPerRun(100, func() {
		s.ivs = append(s.ivs[:0], a.ivs...)
		s.UnionInPlace(&b)
	}); avg != 0 {
		t.Fatalf("UnionInPlace allocates %.1f/op on a warm set, want 0", avg)
	}
	if len(s.ivs) != want {
		t.Fatalf("union has %d intervals, want %d", len(s.ivs), want)
	}
}
