package main

import "testing"

// TestStormCountsRepeat runs a 200-op traced ctl_storm prefix twice from one
// seed and once from another. With the virtual clock frozen the decision
// sequence is a function of the seed alone, so every count below must repeat
// exactly for the same seed and move for a different one. A count that does
// not repeat is a finding about the program under test: the failure names it.
func TestStormCountsRepeat(t *testing.T) {
	storm := workloads()["ctl_storm"].(*ctlWorkload)
	storm.warmup, storm.tracedOps = 100, 200
	counts := []string{"netctl.accepts", "netctl.rejects", "wire.frames_out", "wire.bytes_out", "obs.declog_records"}
	run := func(seed int64) map[string]float64 {
		t.Helper()
		tr, err := storm.traced(seed, t.TempDir())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return tr.values
	}
	a, b, c := run(1), run(1), run(2)
	differs := false
	for _, name := range counts {
		if a[name] <= 0 {
			t.Errorf("%s = %v, want a positive count", name, a[name])
		}
		if a[name] != b[name] {
			t.Errorf("%s does not repeat for one seed: %v then %v", name, a[name], b[name])
		}
		if a[name] != c[name] {
			differs = true
		}
	}
	if !differs {
		t.Errorf("a second seed gave the same counts: %v", c)
	}
}
