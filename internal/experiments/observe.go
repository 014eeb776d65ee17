package experiments

import (
	"taps/internal/core"
	"taps/internal/obs"
	"taps/internal/sched"
	"taps/internal/sim"
)

// recorder, when set via Observe, instruments every scheduler and engine
// the experiment drivers build. It is package state because the drivers
// are invoked through per-figure entry points (Fig6, ExtMix, ...) that
// would otherwise all need a plumbed-through parameter; the recorder
// itself is safe for concurrent runs.
var recorder *obs.Recorder

// Observe routes decision events, planner latency, and link-utilization
// samples from every subsequent experiment run into r. Pass nil to turn
// recording back off. While a recorder is attached the drivers run their
// cells one after another (runCells), so the event stream is ordered.
func Observe(r *obs.Recorder) { recorder = r }

// instrument attaches the active recorder to a freshly built scheduler:
// TAPS records from inside its planner (replans, fast admissions), every
// other scheduler is wrapped so its admissions and Rates latency are
// recorded the same way.
func instrument(s sim.Scheduler) sim.Scheduler {
	if recorder == nil {
		return s
	}
	if t, ok := s.(*core.Scheduler); ok {
		t.SetRecorder(recorder)
		return t
	}
	return sched.Observe(s, recorder)
}

// simConfig attaches the active recorder to an engine configuration.
func simConfig(cfg sim.Config) sim.Config {
	cfg.Obs = recorder
	return cfg
}
