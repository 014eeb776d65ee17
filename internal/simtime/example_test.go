package simtime_test

import (
	"fmt"

	"taps/internal/simtime"
)

// ExampleFirstFit shows the Alg. 3 allocation primitive: find the earliest
// E microseconds that are idle on every link of a path, and the resulting
// completion instant. The path is busy whenever any of its links is.
func ExampleFirstFit() {
	link1 := simtime.NewIntervalSet(simtime.Interval{Start: 0, End: 5})
	link2 := simtime.NewIntervalSet(simtime.Interval{Start: 3, End: 5}, simtime.Interval{Start: 10, End: 20})

	var slices simtime.IntervalSet
	finish, ok := simtime.FirstFit(&slices, 0, 8, 100, link1, link2)
	fmt.Println(slices, finish, ok)
	// Output:
	// {[5,10) [20,23)} 23 true
}

// ExampleFirstFit_bounded shows the strict bound: a candidate that cannot
// finish before it — here, before the best finish found so far — is given
// up, and no slices are asked for.
func ExampleFirstFit_bounded() {
	busy := simtime.NewIntervalSet(simtime.Interval{Start: 0, End: 5}, simtime.Interval{Start: 10, End: 20})

	_, ok := simtime.FirstFit(nil, 0, 8, 23, busy)
	fmt.Println(ok)
	finish, ok := simtime.FirstFit(nil, 0, 8, 24, busy)
	fmt.Println(finish, ok)
	// Output:
	// false
	// 23 true
}
