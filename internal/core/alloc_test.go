package core_test

import (
	"testing"

	"taps/internal/core"
	"taps/internal/sim"
	"taps/internal/simtime"
)

// ratesPin is TAPS that, at the first instant with several flows in
// flight, measures Rates called again at that instant: the rate cache, the
// rate map and the flow buffer are all warm from the engine's own call.
type ratesPin struct {
	*core.Scheduler
	allocs float64
	n      int
}

func (p *ratesPin) Rates(st *sim.State) (sim.RateMap, simtime.Time) {
	rates, horizon := p.Scheduler.Rates(st)
	if p.n == 0 && st.NumActive() > 1 {
		p.allocs = testing.AllocsPerRun(100, func() { p.Scheduler.Rates(st) })
		p.n = st.NumActive()
	}
	return rates, horizon
}

func TestRatesWarmCacheZeroAllocs(t *testing.T) {
	g, r, a, b := pair()
	var flows []sim.FlowSpec
	for i := 0; i < 16; i++ {
		flows = append(flows, sim.FlowSpec{Src: a, Dst: b, Size: 1000})
	}
	p := &ratesPin{Scheduler: core.New(core.DefaultConfig())}
	res := run(t, g, r, p, []sim.TaskSpec{{Deadline: simtime.Second, Flows: flows}})
	if !res.Tasks[0].Completed(res.Flows) {
		t.Fatal("task did not complete")
	}
	if p.n != len(flows) {
		t.Fatalf("measured with %d active flows, want %d", p.n, len(flows))
	}
	if p.allocs != 0 {
		t.Fatalf("Rates allocates %.1f/op on a warm rate cache, want 0", p.allocs)
	}
}
