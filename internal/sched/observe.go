package sched

import (
	"taps/internal/obs"
	"taps/internal/obs/declog"
	"taps/internal/sim"
	"taps/internal/simtime"
)

// observed decorates a scheduler with decision tracing: arrivals that the
// scheduler leaves alive are reported to the engine's sink as admissions,
// and every Rates computation is timed into the recorder's planner-latency
// histogram, so baseline schedulers produce the same comparable metrics
// TAPS reports from inside its planner.
type observed struct {
	sim.Scheduler
	rec  *obs.Recorder
	sink *declog.Sink
}

// A planner reports its own decisions and times its own passes (TAPS:
// core.Scheduler); Observe hands such a scheduler the recorder instead of
// wrapping it.
type recorderUser interface{ SetRecorder(*obs.Recorder) }

// Observe instruments s so its decisions and planning latency feed r.
// Rejections, preemptions, deadline misses and link failures are already
// reported by the engine at the kill site; the wrapper adds the admission
// records and scheduler latency the engine cannot see. A nil recorder
// returns s unchanged.
func Observe(s sim.Scheduler, r *obs.Recorder) sim.Scheduler {
	if r == nil {
		return s
	}
	if u, ok := s.(recorderUser); ok {
		u.SetRecorder(r)
		return s
	}
	return &observed{Scheduler: s, rec: r}
}

// SetSink implements sim.SinkUser: the engine hands over the sink the
// admission records go to.
func (o *observed) SetSink(k *declog.Sink) { o.sink = k }

// OnTaskArrival implements sim.Scheduler. A task the scheduler did not
// kill during arrival handling counts as admitted — baselines admit
// unconditionally, and admission-controlled schedulers mark rejected
// tasks before returning.
func (o *observed) OnTaskArrival(st *sim.State, task *sim.Task) {
	o.Scheduler.OnTaskArrival(st, task)
	if !task.Rejected {
		o.sink.Emit(&declog.Record{Kind: declog.KindAdmit, Time: st.Now(), Task: int64(task.ID)})
	}
}

// Rates implements sim.Scheduler, timing the wrapped allocation pass.
func (o *observed) Rates(st *sim.State) (sim.RateMap, simtime.Time) {
	sw := obs.StartStopwatch()
	rates, horizon := o.Scheduler.Rates(st)
	o.rec.ObservePlanner(sw.Elapsed())
	return rates, horizon
}
