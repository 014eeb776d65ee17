package netctl_test

import (
	"path/filepath"
	"testing"

	"taps/internal/core"
	"taps/internal/experiments"
	"taps/internal/obs"
	"taps/internal/obs/declog"
	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
	"taps/internal/workload"
)

// decisionCounts is what a recorder tallies, without its wall-clock
// latencies.
func decisionCounts(r *obs.Recorder) obs.Summary {
	s := r.Summarize()
	return obs.Summary{Admitted: s.Admitted, Rejected: s.Rejected, Preempted: s.Preempted,
		Replans: s.Replans, Missed: s.Missed, LinksDown: s.LinksDown}
}

// replayTally reads a decision log back and tallies its records.
func replayTally(t *testing.T, path string) obs.Summary {
	t.Helper()
	recs, truncated, err := declog.ReadFile(path)
	if err != nil || truncated {
		t.Fatalf("read %s: truncated=%v err=%v", path, truncated, err)
	}
	rec := obs.NewRecorder()
	sink := declog.Sink{Obs: rec}
	for i := range recs {
		sink.Emit(&recs[i])
	}
	return decisionCounts(rec)
}

// TestTallyMatchesReplay: the decision counters are a tally of the records
// a run emits, so the counters a live sink tallies equal the tally of the
// same log read back — for the simulator's bench-scale TAPS run and for
// the controller under the ctl_storm stream.
func TestTallyMatchesReplay(t *testing.T) {
	t.Run("bench_sim", func(t *testing.T) {
		scale := experiments.BenchScale()
		g, r := topology.SingleRootedTree(scale.Tree)
		specs := workload.Generate(g, workload.Spec{
			Tasks:            scale.Tasks,
			MeanFlowsPerTask: scale.FlowsPerTask,
			ArrivalRate:      scale.ArrivalRate,
			Seed:             scale.Seed,
		})
		path := filepath.Join(t.TempDir(), "bench.dlg")
		w, err := declog.Create(path, declog.Options{})
		if err != nil {
			t.Fatal(err)
		}
		live := obs.NewRecorder()
		eng := sim.New(g, topology.NewCachedRouting(r), core.New(core.DefaultConfig()), specs, sim.Config{
			RecordSegments: true, Sink: declog.Sink{Log: w, Obs: live}, MaxTime: simtime.Time(4e12),
		})
		if _, err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got := decisionCounts(live)
		if got.Admitted == 0 || got.Rejected == 0 || got.Replans == 0 || got.Missed == 0 {
			t.Fatalf("bench run decided too little to compare: %+v", got)
		}
		if want := replayTally(t, path); got != want {
			t.Fatalf("live tally %+v, replayed %+v", got, want)
		}
	})
	t.Run("ctl_storm", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "storm.dlg")
		ctl, d, hosts := startStorm(t, path)
		accepts, rejects := driveStorm(t, d, hosts, 300, func(int, int, int) {})
		if err := ctl.Close(); err != nil {
			t.Fatal(err)
		}
		got := decisionCounts(ctl.Recorder())
		if got.Admitted != uint64(accepts) || got.Rejected != uint64(rejects) || rejects == 0 {
			t.Fatalf("live tally %+v for %d accepts, %d rejects", got, accepts, rejects)
		}
		if want := replayTally(t, path); got != want {
			t.Fatalf("live tally %+v, replayed %+v", got, want)
		}
	})
}
