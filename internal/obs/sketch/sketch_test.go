package sketch

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"taps/internal/obs"
)

func TestNilSketchIsSafe(t *testing.T) {
	var s *Sketch
	s.Observe(0, time.Millisecond)
	if s.Live(0).Quantile(0.5) != 0 || s.Total().Quantile(0.99) != 0 || s.Rate(0) != 0 {
		t.Fatal("nil sketch must report zeros")
	}
	if s.TotalCount() != 0 || s.TotalSum() != 0 || s.Horizon() != 0 {
		t.Fatal("nil sketch must report zero totals")
	}
}

func TestWindowRotationExpiresOldSamples(t *testing.T) {
	const width = int64(time.Second)
	s := New(3, time.Second) // horizon 3s
	s.Observe(0, 10*time.Millisecond)
	s.Observe(width, 20*time.Millisecond)

	if c := s.Live(width).Count(); c != 2 {
		t.Fatalf("live count at t=1s: %d, want 2", c)
	}
	// Liveness is strict: a window is live while its start lies in
	// (now-3s, now]. Window [0,1s) expires at now=3s exactly; window
	// [1s,2s) at now=4s.
	if c := s.Live(3*width - 1).Count(); c != 2 {
		t.Fatalf("live count just before t=3s: %d, want 2", c)
	}
	if c := s.Live(3*width + width/2).Count(); c != 1 {
		t.Fatalf("live count at t=3.5s: %d, want 1", c)
	}
	if c := s.Live(4*width + width/2).Count(); c != 0 {
		t.Fatalf("live count at t=4.5s: %d, want 0", c)
	}
	if c := s.Live(10 * width).Count(); c != 0 {
		t.Fatalf("live count at t=10s: %d, want 0", c)
	}
	if s.Live(10*width).Quantile(0.99) != 0 {
		t.Fatal("expired horizon must report zero quantiles")
	}
	// The all-time aggregate never expires.
	if s.TotalCount() != 2 || s.Total().Quantile(1) == 0 {
		t.Fatalf("all-time lost samples: count=%d", s.TotalCount())
	}
}

func TestRingSlotReuseResetsExpiredCounts(t *testing.T) {
	const width = int64(time.Second)
	s := New(2, time.Second)
	s.Observe(0, time.Millisecond)
	// t=2s maps onto the same ring slot as t=0; the slot must reset, not
	// accumulate into the stale window.
	s.Observe(2*width, 4*time.Millisecond)
	if c := s.Live(2 * width).Count(); c != 1 {
		t.Fatalf("live count after slot reuse: %d, want 1", c)
	}
	if got := s.Live(2 * width).Quantile(1); got != 4*time.Millisecond {
		t.Fatalf("quantile after reuse: %v, want 4ms (max clamp)", got)
	}
}

func TestBackwardClockStepFoldsIntoOccupyingWindow(t *testing.T) {
	const width = int64(time.Second)
	s := New(2, time.Second)
	s.Observe(2*width, time.Millisecond)
	// A sample stamped before the slot's current window start must not be
	// dropped (nor resurrect the old window).
	s.Observe(0, 2*time.Millisecond)
	if c := s.Live(2 * width).Count(); c != 2 {
		t.Fatalf("live count after backward step: %d, want 2", c)
	}
}

// TestMergeMatchesCombinedStream holds the sketch to the plain histogram:
// for random streams split across windows and across two sketches of one
// geometry, Live(now) equals a bare obs.Histogram fed exactly the samples
// whose window is live, Total() one fed every sample, and a.Merge(&b) the
// histogram fed both halves — across window rotation and slot eviction.
func TestMergeMatchesCombinedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		width := time.Duration(1+rng.Intn(3)) * time.Second
		windows := 2 + rng.Intn(6)
		horizon := int64(width) * int64(windows)
		sketches := [2]*Sketch{New(windows, width), New(windows, width)}
		span := horizon * 2 // include rotation + expiry
		n := 1 + rng.Intn(400)
		// Timestamps are non-decreasing, as in real use, and every query
		// is at or after the last one: a window can then only have lost
		// its slot to one a whole horizon newer, so it is already expired.
		type sample struct {
			at   int64
			d    time.Duration
			half int
		}
		samples := make([]sample, n)
		for i := range samples {
			samples[i].at = rng.Int63n(span)
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i].at < samples[j].at })
		for i := range samples {
			sm := &samples[i]
			sm.d = time.Duration(rng.Int63n(int64(time.Second)))
			sm.half = rng.Intn(2)
			sketches[sm.half].Observe(sm.at, sm.d)
		}
		last := samples[n-1].at
		for _, now := range []int64{last, span, span + int64(width), last + horizon} {
			var live, total [2]obs.Histogram
			var liveBoth, totalBoth obs.Histogram
			for _, sm := range samples {
				total[sm.half].Observe(sm.d)
				totalBoth.Observe(sm.d)
				if start := sm.at - sm.at%int64(width); start > now-horizon && start <= now {
					live[sm.half].Observe(sm.d)
					liveBoth.Observe(sm.d)
				}
			}
			for h, s := range sketches {
				if s.Live(now) != live[h] {
					t.Fatalf("trial %d now=%d: sketch %d Live differs from the histogram of its live samples", trial, now, h)
				}
				if s.Total() != total[h] {
					t.Fatalf("trial %d: sketch %d Total differs from the histogram of its samples", trial, h)
				}
			}
			merged, other := sketches[0].Live(now), sketches[1].Live(now)
			merged.Merge(&other)
			if merged != liveBoth {
				t.Fatalf("trial %d now=%d: merged Live differs from the combined-stream histogram", trial, now)
			}
			merged, other = sketches[0].Total(), sketches[1].Total()
			merged.Merge(&other)
			if merged != totalBoth {
				t.Fatalf("trial %d: merged Total differs from the combined-stream histogram", trial)
			}
		}
	}
}

// TestQuantileWithinOneBucketOfSamples pins the accuracy contract: for
// samples that are all inside the live horizon, every reported quantile is
// the log-bucket upper bound of a true sample quantile — within a factor
// of two above it, never more than one bucket away.
func TestQuantileWithinOneBucketOfSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		width := time.Second
		windows := 4 + rng.Intn(4)
		a, b := New(windows, width), New(windows, width)
		// Keep every sample strictly inside the horizon: starts in
		// (now-horizon, now] with now = horizon, no eviction possible.
		now := int64(width) * int64(windows)
		var all []time.Duration
		n := 10 + rng.Intn(300)
		for i := 0; i < n; i++ {
			at := now - rng.Int63n(int64(width)*int64(windows-1))
			d := time.Duration(rng.Int63n(int64(time.Second)))
			if i%2 == 0 {
				a.Observe(at, d)
			} else {
				b.Observe(at, d)
			}
			all = append(all, d)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		merged, other := a.Live(now), b.Live(now)
		merged.Merge(&other)
		if got := merged.Count(); got != uint64(n) {
			t.Fatalf("trial %d: live count %d, want %d", trial, got, n)
		}
		for _, q := range []float64{0.5, 0.95, 0.99, 1} {
			rank := int(math.Ceil(q*float64(n))) - 1
			if rank < 0 {
				rank = 0
			}
			truth := all[rank]
			got := merged.Quantile(q)
			if got < truth || (truth > 0 && got > 2*truth) {
				t.Fatalf("trial %d q=%v: sketch %v outside [truth, 2*truth] of %v",
					trial, q, got, truth)
			}
		}
	}
}

// TestLiveAndTotalAreConsistentCopies: a histogram handed out while
// another goroutine observes is one instant's state — its count is the
// sum of its buckets and no quantile exceeds its max. Separate Count,
// Quantile and Max calls on the sketch could promise neither.
func TestLiveAndTotalAreConsistentCopies(t *testing.T) {
	s := New(4, time.Millisecond)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(5))
		for now := int64(0); ; now += int64(50 * time.Microsecond) {
			select {
			case <-stop:
				return
			default:
				s.Observe(now, time.Duration(rng.Int63n(int64(time.Second))))
			}
		}
	}()
	check := func(name string, h obs.Histogram) {
		var sum uint64
		for _, c := range h.Buckets() {
			sum += c
		}
		if sum != h.Count() {
			t.Fatalf("%s: count %d, buckets sum to %d", name, h.Count(), sum)
		}
		for _, q := range []float64{0.5, 0.95, 0.99, 1} {
			if got := h.Quantile(q); got > h.Max() {
				t.Fatalf("%s: q=%v is %v, above max %v", name, q, got, h.Max())
			}
		}
	}
	for i := 0; i < 2000; i++ {
		check("Live", s.Live(int64(i)*int64(100*time.Microsecond)))
		check("Total", s.Total())
	}
	close(stop)
	<-done
}

func TestRate(t *testing.T) {
	s := New(10, time.Second) // horizon 10s
	for i := 0; i < 50; i++ {
		s.Observe(int64(i)*int64(time.Second)/5, time.Millisecond) // 50 events in 10s
	}
	now := 10 * int64(time.Second)
	got := s.Rate(now)
	if got < 4.0 || got > 5.1 {
		t.Fatalf("rate = %v ev/s, want ~5", got)
	}
}

func TestObserveAllocFree(t *testing.T) {
	s := New(8, time.Second)
	now := int64(0)
	if n := testing.AllocsPerRun(100, func() {
		now += int64(time.Second) / 3
		s.Observe(now, time.Millisecond)
	}); n != 0 {
		t.Fatalf("Observe allocates %v/op, want 0", n)
	}
}

func TestWritePrometheus(t *testing.T) {
	plan := New(4, time.Second)
	idle := New(4, time.Second)
	_ = idle // never observed: must not appear
	for i := 0; i < 10; i++ {
		plan.Observe(int64(i)*int64(time.Millisecond), time.Duration(i+1)*time.Millisecond)
	}
	var buf bytes.Buffer
	err := WritePrometheus(&buf, "taps_ctl_stage_seconds", "Per-stage decision latency.", "stage",
		[]Labeled{{"plan", plan}, {"idle", idle}}, int64(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`taps_ctl_stage_seconds_bucket{stage="plan",le="+Inf"} 10`,
		`taps_ctl_stage_seconds_count{stage="plan"} 10`,
		`taps_ctl_stage_seconds_window{stage="plan",q="0.99"}`,
		"# TYPE taps_ctl_stage_seconds histogram",
		"# TYPE taps_ctl_stage_seconds_window gauge",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
	if strings.Contains(text, `stage="idle"`) {
		t.Fatalf("idle stage must be skipped:\n%s", text)
	}
}
