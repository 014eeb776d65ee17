package obs

import (
	"testing"
	"time"
)

// TestRecordZeroAllocs proves the recording paths allocate nothing — both
// the disabled (nil recorder) path the planner hot loop takes by default,
// and the enabled tally and histogram paths.
func TestRecordZeroAllocs(t *testing.T) {
	var nilRec *Recorder
	if n := testing.AllocsPerRun(1000, func() {
		nilRec.Tally(KindReplan)
		nilRec.ObservePlanner(time.Microsecond)
	}); n != 0 {
		t.Fatalf("disabled recorder path allocates %.1f/op, want 0", n)
	}

	r := NewRecorder()
	if n := testing.AllocsPerRun(1000, func() {
		r.Tally(KindReplan)
		r.ObservePlanner(time.Microsecond)
	}); n != 0 {
		t.Fatalf("enabled recorder path allocates %.1f/op, want 0", n)
	}
}

func BenchmarkTally(b *testing.B) {
	r := NewRecorder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Tally(KindTaskAdmitted)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}
