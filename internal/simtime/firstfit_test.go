package simtime

import (
	"math/rand"
	"testing"
)

// fitCase is one random FirstFit problem: sets, a start, an amount and the
// end of the window the oracle pipeline complements inside.
type fitCase struct {
	sets             []IntervalSet
	from, units, end Time
}

// randFitCase draws the shapes the planner meets and the ones it should
// never: none to 20 sets (more than the 12 cursors FirstFit keeps on its
// stack), empty sets, intervals of different sets that touch end to start,
// a start inside a busy interval, nothing to take, an unsatisfiable
// amount, and windows shorter than the amount.
func randFitCase(rng *rand.Rand) fitCase {
	c := fitCase{sets: make([]IntervalSet, rng.Intn(14))}
	if rng.Intn(8) == 0 {
		c.sets = make([]IntervalSet, 13+rng.Intn(8))
	}
	for i := range c.sets {
		for n := rng.Intn(6); n > 0; n-- {
			start := Time(rng.Intn(40)) * 5 // multiples of 5: touching is common
			c.sets[i].Add(Interval{start, start + Time(1+rng.Intn(3))*5})
		}
	}
	c.from = Time(rng.Intn(220))
	c.units = Time(rng.Intn(60))
	c.end = c.from + Time(rng.Intn(300))
	switch rng.Intn(12) {
	case 0:
		c.units = 0
	case 1:
		c.units = Infinity
	case 2:
		c.end = c.from + c.units/2
	}
	return c
}

// TestFirstFitMatchesOracle holds the sweep, with the window's end as its
// bound, equal to union → complement → take over random cases: whether the
// units fit and, when they do, the finish and the slices.
func TestFirstFitMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	dst := dirtyScratch()
	fits := 0
	for i := 0; i < 100_000; i++ {
		c := randFitCase(rng)
		want, wantFinish, wantOK := oracleFirstFit(c.from, c.units, c.end, c.sets...)
		finish, ok := FirstFit(&dst, c.from, c.units, c.end+1, c.sets...)
		if ok != wantOK {
			t.Fatalf("case %d %+v: ok = %v, oracle %v", i, c, ok, wantOK)
		}
		if !ok {
			if finish < c.end+1 {
				t.Fatalf("case %d %+v: failed with finish %d inside the bound", i, c, finish)
			}
			continue
		}
		fits++
		if finish != wantFinish || dst.String() != want.String() || !dst.Valid() {
			t.Fatalf("case %d %+v: got %v finish %d, oracle %v finish %d", i, c, dst, finish, want, wantFinish)
		}
		if f, ok := FirstFit(nil, c.from, c.units, c.end+1, c.sets...); !ok || f != finish {
			t.Fatalf("case %d %+v: without a destination (%d, %v), with one (%d, true)", i, c, f, ok, finish)
		}
	}
	if fits < 20_000 {
		t.Fatalf("only %d of the cases fit; the comparison lost its teeth", fits)
	}
}

// TestFirstFitBoundIsStrict: a finish equal to the bound is a failure, one
// microsecond more room is a success with the same finish and slices.
func TestFirstFitBoundIsStrict(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20_000; i++ {
		c := randFitCase(rng)
		if c.units <= 0 || c.units == Infinity {
			continue
		}
		var free, tight IntervalSet
		finish, ok := FirstFit(&free, c.from, c.units, Infinity, c.sets...)
		if !ok {
			t.Fatalf("case %+v: unbounded sweep failed", c)
		}
		if f, ok := FirstFit(nil, c.from, c.units, finish, c.sets...); ok || f < finish {
			t.Fatalf("case %+v: before = finish = %d returned (%d, %v)", c, finish, f, ok)
		}
		if f, ok := FirstFit(&tight, c.from, c.units, finish+1, c.sets...); !ok || f != finish || tight.String() != free.String() {
			t.Fatalf("case %+v: before = finish+1 = %d returned (%d, %v) %v, want %d %v", c, finish+1, f, ok, tight, finish, free)
		}
	}
}

// TestFirstFitAbandonedDestination: a sweep given up part-way leaves slices
// behind in the destination; the next call over it starts from nothing.
func TestFirstFitAbandonedDestination(t *testing.T) {
	busy := ts(0, 5, 10, 20, 30, 40)
	var dst IntervalSet
	if _, ok := FirstFit(&dst, 0, 18, 35, busy); ok {
		t.Fatal("a sweep that finishes at 43 passed a bound of 35")
	}
	if dst.Empty() {
		t.Fatal("the abandoned sweep wrote nothing; the test lost its subject")
	}
	finish, ok := FirstFit(&dst, 6, 2, Infinity, busy)
	if !ok || finish != 8 || dst.String() != "{[6,8)}" {
		t.Fatalf("after an abandoned sweep: got %v finish %d ok %v, want {[6,8)} 8 true", dst, finish, ok)
	}
}

func TestFirstFitNothingToTake(t *testing.T) {
	dst := dirtyScratch()
	if finish, ok := FirstFit(&dst, 7, 0, 8, ts(0, 50)); !ok || finish != 7 || !dst.Empty() {
		t.Fatalf("units 0: got %v finish %d ok %v, want {} 7 true", dst, finish, ok)
	}
	if _, ok := FirstFit(nil, 7, 0, 7); ok {
		t.Fatal("units 0 at the bound succeeded; the bound is strict")
	}
}

// TestPropFirstFitTakesIdleTime: what a successful sweep takes measures
// exactly the units asked for, lies at or after from, ends at the finish,
// and is idle on every set.
func TestPropFirstFitTakesIdleTime(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20_000; i++ {
		c := randFitCase(rng)
		var taken IntervalSet
		finish, ok := FirstFit(&taken, c.from, c.units, c.end+1, c.sets...)
		if !ok || c.units == 0 {
			continue
		}
		ivs := taken.Intervals()
		if taken.Total() != c.units || ivs[0].Start < c.from || ivs[len(ivs)-1].End != finish {
			t.Fatalf("case %+v: took %v (finish %d)", c, taken, finish)
		}
		for _, s := range c.sets {
			if !Intersect(taken, s).Empty() {
				t.Fatalf("case %+v: took %v, busy on %v", c, taken, s)
			}
		}
	}
}
