package experiments

import (
	"taps/internal/obs"
	"taps/internal/sim"
)

// recorder, when set via Observe, records every engine the experiment
// drivers build. It is package state because the drivers are invoked
// through per-figure entry points (Fig6, ExtMix, ...) that would otherwise
// all need a plumbed-through parameter; the recorder itself is safe for
// concurrent runs.
var recorder *obs.Recorder

// Observe routes decision counts and planner latency from every
// subsequent experiment run into r. Pass nil to turn recording back off.
func Observe(r *obs.Recorder) { recorder = r }

// simConfig points an engine configuration's sink at the active recorder,
// which tallies the decisions the engine and the scheduler report and
// times the scheduler's planning.
func simConfig(cfg sim.Config) sim.Config {
	cfg.Sink.Obs = recorder
	return cfg
}
