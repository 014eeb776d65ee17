package sim_test

import (
	"testing"

	"taps/internal/sim"
	"taps/internal/simtime"
)

// activePin is serialSched that, at the first instant with several flows
// in flight, measures AppendActiveFlows into a buffer already grown to
// fleet size — the per-tick snapshot schedulers take.
type activePin struct {
	serialSched
	allocs float64
	n      int
}

func (p *activePin) Rates(st *sim.State) (sim.RateMap, simtime.Time) {
	if p.n == 0 && st.NumActive() > 1 {
		buf := st.AppendActiveFlows(nil)
		p.allocs = testing.AllocsPerRun(100, func() { buf = st.AppendActiveFlows(buf[:0]) })
		p.n = len(buf)
	}
	return p.serialSched.Rates(st)
}

func TestAppendActiveFlowsZeroAllocs(t *testing.T) {
	g, r, a, b := pair()
	var flows []sim.FlowSpec
	for i := 0; i < 16; i++ {
		flows = append(flows, sim.FlowSpec{Src: a, Dst: b, Size: 1000})
	}
	p := &activePin{}
	run(t, g, r, p, []sim.TaskSpec{{Deadline: simtime.Second, Flows: flows}})
	if p.n != len(flows) {
		t.Fatalf("measured with %d active flows, want %d", p.n, len(flows))
	}
	if p.allocs != 0 {
		t.Fatalf("AppendActiveFlows allocates %.1f/op into a warm buffer, want 0", p.allocs)
	}
}
