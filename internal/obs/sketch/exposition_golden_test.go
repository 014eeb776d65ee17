package sketch

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"taps/internal/obs"
)

// goldenDurations is the fixed sample list behind exposition.golden: the
// edges of the bucket layout (zero, a clock anomaly, 1ns, every power of
// two with both neighbours) followed by a seeded spread over 0..10s. The
// powers alone add up past MaxInt64, so the pinned sums include the int64
// wrap.
func goldenDurations() []time.Duration {
	ds := []time.Duration{0, -time.Second, 1}
	for k := 1; k < 63; k++ {
		p := time.Duration(1) << uint(k)
		ds = append(ds, p-1, p, p+1)
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200; i++ {
		ds = append(ds, time.Duration(rng.Int63n(int64(10*time.Second))))
	}
	return ds
}

// TestExpositionGolden pins every byte the two Prometheus exporters write
// for a fixed set of samples: the recorder's two latency histograms and a
// labelled sketch family scraped after part of its ring has rotated out.
// Regenerate with
//
//	UPDATE_GOLDEN=1 go test ./internal/obs/sketch -run TestExpositionGolden
//
// only for a change that is meant to move exported numbers (a new bucket
// layout); a refactor of the histogram or the sketch must leave it alone.
func TestExpositionGolden(t *testing.T) {
	ds := goldenDurations()

	rec := obs.NewRecorder()
	for i, d := range ds {
		if i%2 == 0 {
			rec.Tally(obs.KindReplan)
		}
		rec.ObservePlanner(d)
		rec.ObserveDeclogSync(d)
	}
	rec.ObservePlanner(math.MaxInt64)
	rec.DeclogAppended(len(ds), 1<<20)

	// Three one-second windows. Samples land in windows 0..4, so slots 0
	// and 1 are reused; the scrape at 4.5s sees windows 2, 3 and 4 live.
	const sec = int64(time.Second)
	plan, total := New(3, time.Second), New(3, time.Second)
	for i, d := range ds {
		at := int64(i) * 5 * sec / int64(len(ds))
		plan.Observe(at, d)
		if i%3 == 0 {
			total.Observe(at+sec/2, 2*d)
		}
	}
	plan.Observe(4*sec, math.MaxInt64)
	idle := New(3, time.Second)    // never observed: no series at all
	expired := New(3, time.Second) // observed long ago: histogram, no window gauges
	expired.Observe(-10*sec, 3*time.Millisecond)

	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, rec); err != nil {
		t.Fatal(err)
	}
	err := WritePrometheus(&buf, "taps_ctl_stage_seconds", "Controller admission-path latency by stage.", "stage",
		[]Labeled{{"plan", plan}, {"idle", idle}, {"expired", expired}, {"total", total}}, 4*sec+sec/2)
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "exposition.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition deviates from %s; got:\n%s", golden, buf.String())
	}
}
