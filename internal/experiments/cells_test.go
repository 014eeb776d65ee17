package experiments

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"taps/internal/obs"
	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
	"taps/internal/workload"
)

// atProcs runs f with GOMAXPROCS set to n.
func atProcs[T any](n int, f func() T) T {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	return f()
}

// parallelScale is BenchScale averaged over seeds 1..3. Seed 3 is the one
// where, at Fig. 6's 20 ms point, PDQ's Early Termination kills the last
// active flows inside Rates with nothing pending.
func parallelScale() Scale {
	s := BenchScale()
	s.Seeds = 3
	return s
}

// TestCellsSameAtAnyGOMAXPROCS: one core and four must produce the same
// figures float for float, standard deviations included — the fold runs in
// index order whatever order the cells finished in.
func TestCellsSameAtAnyGOMAXPROCS(t *testing.T) {
	drivers := map[string]func() (any, error){
		"Fig6":   func() (any, error) { return Fig6(parallelScale(), AllSchedulers()) },
		"Fig7":   func() (any, error) { return Fig7(parallelScale(), AllSchedulers()) },
		"Fig11":  func() (any, error) { return Fig11(parallelScale(), AllSchedulers()) },
		"ExtMix": func() (any, error) { return ExtMix(parallelScale(), AllSchedulers()) },
	}
	for name, run := range drivers {
		t.Run(name, func(t *testing.T) {
			var results [2]any
			for i, procs := range []int{1, 4} {
				err := atProcs(procs, func() (err error) {
					results[i], err = run()
					return err
				})
				if err != nil {
					t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
				}
			}
			if !reflect.DeepEqual(results[0], results[1]) {
				t.Fatalf("GOMAXPROCS 1 and 4 disagree:\n%+v\n%+v", results[0], results[1])
			}
		})
	}
}

// TestCellsSameErrorAtAnyGOMAXPROCS: in Fig. 6's sweep over seeds 1..3,
// every seed-3 workload from the 30 ms point on holds a task that arrives
// past runPoint's MaxTime, so a quarter of the cells fail, the first in the
// middle of the cell list; the error must be that cell's, word for word,
// however many workers ran.
func TestCellsSameErrorAtAnyGOMAXPROCS(t *testing.T) {
	scale := BenchScale()
	g, r := topology.SingleRootedTree(scale.Tree)
	var msgs [2]string
	for i, procs := range []int{1, 4} {
		err := atProcs(procs, func() error {
			_, err := sweep(g, r, AllSchedulers(), "fig6", "deadline_ms", DeadlineSweepPoints, []int64{1, 2, 3},
				func(i int, seed int64) []sim.TaskSpec {
					specs := workload.Generate(g, workload.Spec{
						Tasks:            scale.Tasks,
						MeanFlowsPerTask: scale.FlowsPerTask,
						ArrivalRate:      scale.ArrivalRate,
						MeanDeadline:     simtime.FromMillis(DeadlineSweepPoints[i]),
						Seed:             seed,
					})
					if i >= 1 && seed == 3 {
						specs[0].Arrival = simtime.Time(5e12)
					}
					return specs
				})
			return err
		})
		if err == nil {
			t.Fatal("no cell failed")
		}
		msgs[i] = err.Error()
	}
	if msgs[0] != msgs[1] {
		t.Fatalf("errors differ:\n%s\n%s", msgs[0], msgs[1])
	}
	if !strings.HasPrefix(msgs[0], "fig6 at deadline_ms=30 seed=3: FairSharing: sim: exceeded MaxTime") {
		t.Fatalf("not the lowest-index failing cell: %s", msgs[0])
	}
}

// TestRunCellsLowestIndexError: with several failing cells the lowest
// index wins, and the runner stops handing cells out after a failure. (How
// many cells other workers start before a failing cell has returned is up
// to the scheduler, so the count is checked with one worker only.)
func TestRunCellsLowestIndexError(t *testing.T) {
	_, r := topology.SingleRootedTree(BenchScale().Tree)
	const n, firstBad = 200, 40
	for _, procs := range []int{1, 4} {
		var started atomic.Int64
		err := atProcs(procs, func() error {
			_, err := runCells(n, r, func(_ topology.Routing, i int) (int, error) {
				started.Add(1)
				if i >= firstBad && i%20 == 0 {
					return 0, fmt.Errorf("cell %d", i)
				}
				return i, nil
			})
			return err
		})
		if err == nil || err.Error() != fmt.Sprintf("cell %d", firstBad) {
			t.Fatalf("GOMAXPROCS=%d: err = %v", procs, err)
		}
		if got := started.Load(); procs == 1 && got != firstBad+1 {
			t.Fatalf("%d cells started, failure at index %d", got, firstBad)
		}
	}
}

// TestRunCellsSlots: every result lands in the slot of its index.
func TestRunCellsSlots(t *testing.T) {
	_, r := topology.SingleRootedTree(BenchScale().Tree)
	out := atProcs(4, func() []int {
		out, err := runCells(100, r, func(_ topology.Routing, i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		return out
	})
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
}

// TestObservedSummarySameAtAnyGOMAXPROCS: with a recorder attached the
// cells still run in parallel, and what the recorder adds up — decision
// counts and histogram sample counts, all but the wall-clock latencies —
// is the same at any GOMAXPROCS.
func TestObservedSummarySameAtAnyGOMAXPROCS(t *testing.T) {
	defer Observe(nil)
	var sums [2]obs.Summary
	for i, procs := range []int{1, 4} {
		rec := obs.NewRecorder()
		Observe(rec)
		err := atProcs(procs, func() error {
			_, err := Fig7(parallelScale(), AllSchedulers())
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		s := rec.Summarize()
		sums[i] = obs.Summary{Admitted: s.Admitted, Rejected: s.Rejected, Preempted: s.Preempted,
			Replans: s.Replans, Missed: s.Missed, LinksDown: s.LinksDown, PlannerSamples: s.PlannerSamples}
	}
	if sums[0].Admitted == 0 || sums[0].Replans == 0 || sums[0].PlannerSamples == 0 {
		t.Fatalf("nothing recorded: %+v", sums[0])
	}
	if sums[0] != sums[1] {
		t.Fatalf("GOMAXPROCS 1 vs 4:\n%+v\n%+v", sums[0], sums[1])
	}
}
