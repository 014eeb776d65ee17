// Package sketch is a windowed latency sketch for live controller-load
// telemetry: a rotating ring of fixed-width time windows, each holding one
// obs.Histogram, plus one all-time histogram. A /metrics or /load scrape
// can so report p50/p95/p99 over the *last N seconds* of traffic rather
// than over the process lifetime, alongside the all-time aggregate. The
// bucket layout, the quantile walk and the exposition are obs.Histogram's;
// this package only decides which samples are live.
//
// Design constraints, matching the rest of internal/obs:
//
//   - Nil-safe: every method on a nil *Sketch is a no-op.
//   - Zero-alloc Observe: rotation reuses ring slots in place; recording
//     is an index computation plus counter bumps under a mutex
//     (AllocsPerRun-verified).
//   - No wall-clock reads: callers pass the current instant as unix
//     nanoseconds, keeping this package clock-free (the tapslint wallclock
//     discipline) and making window arithmetic testable and replayable.
//   - One lock, copies out: Sketch.mu guards the ring and the all-time
//     histogram; Live and Total return histogram values, so every number a
//     caller reads off one of them describes the same instant.
package sketch

import (
	"sync"
	"time"

	"taps/internal/obs"
)

// Window is one time window's samples, the sketch's unit of rotation.
// Start identifies the window: unix nanoseconds, aligned down to the
// sketch width.
type Window struct {
	Start int64
	Hist  obs.Histogram
}

// Sketch is the live recorder. Create with New; a nil *Sketch is a valid
// disabled sketch. All methods are safe for concurrent use.
type Sketch struct {
	width int64 // window width in nanoseconds

	mu      sync.Mutex
	ring    []Window      // fixed-length rotation ring
	allTime obs.Histogram // process-lifetime aggregate
}

// Default window geometry: 15 one-second windows, so windowed quantiles
// describe the last ~15s of traffic — long enough to smooth a scrape
// interval, short enough to track an arrival storm as it happens.
const (
	DefaultWindows = 15
	DefaultWidth   = time.Second
)

// New returns a sketch with the given ring geometry (windows of width
// each); non-positive arguments take the defaults.
func New(windows int, width time.Duration) *Sketch {
	if windows <= 0 {
		windows = DefaultWindows
	}
	if width <= 0 {
		width = DefaultWidth
	}
	return &Sketch{width: int64(width), ring: make([]Window, windows)}
}

// Horizon returns the total observable span: width × windows (0 on nil).
func (s *Sketch) Horizon() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.width * int64(len(s.ring)))
}

// slotLocked returns the ring slot for the window containing now,
// resetting it in place if it still holds an expired window's counts.
func (s *Sketch) slotLocked(now int64) *Window {
	start := now - mod(now, s.width)
	w := &s.ring[int(mod(start/s.width, int64(len(s.ring))))]
	if start > w.Start {
		*w = Window{Start: start}
	}
	// start < w.Start only when the caller's clock stepped backwards
	// across a window boundary; the sample folds into the newer window
	// already occupying the slot rather than being dropped.
	return w
}

// mod is a floored modulo so pre-epoch instants (negative nanos, only
// plausible in tests) still map into the ring.
func mod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}

// Observe records one duration at the instant now (unix nanoseconds).
// Allocation-free; no-op on nil.
func (s *Sketch) Observe(now int64, d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.slotLocked(now).Hist.Observe(d)
	s.allTime.Observe(d)
	s.mu.Unlock()
}

// Live returns the histogram of the samples in the live horizon as of
// now: every non-expired window folded into one value (empty on nil). A
// window is live when its start lies in (now-horizon, now] — exactly the
// ring's worth of aligned starts, so the filter and slot eviction agree
// on which windows exist: a window old enough to have lost its slot to a
// newer one is never admitted, whether or not the slot was actually
// reused. The current partial window counts, so the live span covers
// between (windows-1) and windows widths of real time.
func (s *Sketch) Live(now int64) obs.Histogram {
	var live obs.Histogram
	if s == nil {
		return live
	}
	horizon := s.width * int64(len(s.ring))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.ring {
		w := &s.ring[i]
		if w.Hist.Count() > 0 && w.Start > now-horizon && w.Start <= now {
			live.Merge(&w.Hist)
		}
	}
	return live
}

// Total returns the histogram of every sample ever recorded, for
// end-of-run summaries where the live horizon may already be idle (empty
// on nil).
func (s *Sketch) Total() obs.Histogram {
	if s == nil {
		return obs.Histogram{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.allTime
}

// TotalCount returns the all-time sample count.
func (s *Sketch) TotalCount() uint64 { return s.Total().Count() }

// TotalSum returns the all-time duration sum.
func (s *Sketch) TotalSum() time.Duration { return s.Total().Sum() }

// Rate returns the live-horizon event rate in events per second as of now
// (0 on nil).
func (s *Sketch) Rate(now int64) float64 {
	if s == nil {
		return 0
	}
	return float64(s.Live(now).Count()) / s.Horizon().Seconds()
}
