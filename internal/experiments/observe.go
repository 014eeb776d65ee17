package experiments

import (
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

// Observe routes decision counts and planner latency from every
// subsequent experiment run into r. Pass nil to turn recording back off.
func Observe(r *obs.Recorder) { recorder = r }

// instrument attaches the active recorder to a freshly built scheduler
// (sched.Observe).
func instrument(s sim.Scheduler) sim.Scheduler { return sched.Observe(s, recorder) }

// simConfig points an engine configuration's sink at the active recorder,
// which tallies the decisions the engine and the scheduler report.
func simConfig(cfg sim.Config) sim.Config {
	cfg.Sink.Obs = recorder
	return cfg
}
