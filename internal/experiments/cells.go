package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"taps/internal/topology"
)

// runCells runs cell(routing, i) for every i in [0, n) and returns the
// results in index order. Every experiment driver is a loop over cells —
// independent, seeded, deterministic simulations — so the cells are handed
// out by index to min(GOMAXPROCS, n) goroutines; each result lands in the
// slot of its index and the caller folds the slots afterwards, in the order
// a sequential loop would have produced them. What the caller computes is
// therefore the same at any GOMAXPROCS, float for float.
//
// The graph and the workloads a cell closes over are shared and must only
// be read. The one mutable thing a simulation touches outside itself is the
// routing memo table, so each worker wraps r in a cache of its own and
// passes that to its cells.
//
// On failure the error of the lowest failing index is returned, which is
// the error a sequential loop stops at: indices are handed out in
// increasing order, so that cell always runs. Once any cell has failed no
// further cell is handed out.
func runCells[T any](n int, r topology.Routing, cell func(r topology.Routing, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	work := func() {
		cr := topology.NewCachedRouting(r)
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if out[i], errs[i] = cell(cr, i); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
