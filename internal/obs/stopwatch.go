package obs

import "time"

// Stopwatch is how the simulated-time packages time real execution for a
// latency histogram. Those packages may not read the wall clock (tapslint
// wallclock): an instant that reaches simtime makes plans differ between
// runs. A Stopwatch reads it for them and gives back only an elapsed
// time.Duration and the unix-nanosecond instant a sketch window is keyed
// by — nothing a caller can turn into virtual time without a conversion
// that names what it is doing. The zero value is a stopwatch that was
// never started; its readings are meaningless but harmless.
type Stopwatch struct{ start time.Time }

// StartStopwatch starts timing now.
func StartStopwatch() Stopwatch { return Stopwatch{start: time.Now()} }

// Elapsed returns the time since the start.
func (s Stopwatch) Elapsed() time.Duration { return time.Since(s.start) }

// Lap returns the time since the start together with the instant of this
// reading in unix nanoseconds, both from one clock read, so the sample and
// the sketch window it lands in agree.
func (s Stopwatch) Lap() (elapsed time.Duration, unixNano int64) {
	now := time.Now()
	return now.Sub(s.start), now.UnixNano()
}
