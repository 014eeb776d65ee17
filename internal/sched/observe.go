package sched

import (
	"taps/internal/obs"
	"taps/internal/sim"
	"taps/internal/simtime"
)

// observed decorates a scheduler with decision tracing: arrivals that the
// scheduler leaves alive are recorded as admissions, and every Rates
// computation is timed into the recorder's planner-latency histogram, so
// baseline schedulers produce the same comparable metrics TAPS emits from
// inside its planner.
type observed struct {
	sim.Scheduler
	rec *obs.Recorder
}

// Observe wraps s so its decisions feed r. Rejections, preemptions,
// deadline misses and link failures are already recorded by the engine at
// the kill site; the wrapper adds the admission events and scheduler
// latency the engine cannot see. A nil recorder returns s unchanged.
func Observe(s sim.Scheduler, r *obs.Recorder) sim.Scheduler {
	if r == nil {
		return s
	}
	return &observed{Scheduler: s, rec: r}
}

// OnTaskArrival implements sim.Scheduler. A task the scheduler did not
// kill during arrival handling counts as admitted — baselines admit
// unconditionally, and admission-controlled schedulers mark rejected
// tasks before returning.
func (o *observed) OnTaskArrival(st *sim.State, task *sim.Task) {
	o.Scheduler.OnTaskArrival(st, task)
	if !task.Rejected {
		o.rec.Record(obs.Event{Time: st.Now(), Kind: obs.KindTaskAdmitted,
			Task: int64(task.ID)})
	}
}

// Rates implements sim.Scheduler, timing the wrapped allocation pass.
func (o *observed) Rates(st *sim.State) (sim.RateMap, simtime.Time) {
	sw := obs.StartStopwatch()
	rates, horizon := o.Scheduler.Rates(st)
	o.rec.ObservePlanner(sw.Elapsed())
	return rates, horizon
}
