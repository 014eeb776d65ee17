package sketch

import (
	"fmt"
	"io"
	"strings"
	"time"

	"taps/internal/obs"
)

// Labeled pairs one sketch with its label value for the Prometheus
// exporter (e.g. stage="plan").
type Labeled struct {
	Label  string
	Sketch *Sketch
}

// WindowQuantiles are the quantiles the exporter reports as live gauges.
var WindowQuantiles = []float64{0.5, 0.95, 0.99}

// WritePrometheus writes one labeled sketch family in the Prometheus text
// exposition format: an all-time cumulative histogram named name (with
// labelKey=label per series) plus name+"_window" gauges carrying the live
// p50/p95/p99 (label q) over each sketch's horizon as of now. Sketches
// that never observed a sample are skipped; help documents the family.
// Each sketch is read once per section — Total for the histogram, Live
// for the gauges — so a series' lines agree with each other.
func WritePrometheus(w io.Writer, name, help, labelKey string, items []Labeled, now int64) error {
	var b strings.Builder
	wroteHist := false
	for _, it := range items {
		total := it.Sketch.Total()
		if total.Count() == 0 {
			continue
		}
		if !wroteHist {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
			wroteHist = true
		}
		total.WritePrometheus(&b, name, fmt.Sprintf("%s=%q", labelKey, it.Label))
	}
	wroteWin := false
	for _, it := range items {
		live := it.Sketch.Live(now)
		if live.Count() == 0 {
			continue
		}
		if !wroteWin {
			fmt.Fprintf(&b, "# HELP %s_window Live quantiles over the sketch horizon (last %s).\n# TYPE %s_window gauge\n",
				name, horizonLabel(items), name)
			wroteWin = true
		}
		for _, q := range WindowQuantiles {
			fmt.Fprintf(&b, "%s_window{%s=%q,q=\"%g\"} %s\n",
				name, labelKey, it.Label, q, obs.FormatSeconds(live.Quantile(q)))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// horizonLabel describes the horizon of the first live sketch (they are
// uniform in practice — one geometry per family).
func horizonLabel(items []Labeled) time.Duration {
	for _, it := range items {
		if h := it.Sketch.Horizon(); h > 0 {
			return h
		}
	}
	return 0
}
