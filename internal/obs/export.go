package obs

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
)

// WritePrometheus writes the recorder's state in the Prometheus text
// exposition format (version 0.0.4): per-kind decision counters, the
// planner latency histogram with cumulative log buckets, and the
// decision-log health series. A nil recorder writes nothing.
func WritePrometheus(w io.Writer, r *Recorder) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	b.WriteString("# HELP taps_events_total Controller decision and runtime events by kind.\n")
	b.WriteString("# TYPE taps_events_total counter\n")
	for k := Kind(0); k < kindCount; k++ {
		fmt.Fprintf(&b, "taps_events_total{kind=%q} %d\n", k.String(), r.Count(k))
	}

	b.WriteString("# HELP taps_replan_latency_seconds Wall-clock planner latency per re-plan pass.\n")
	b.WriteString("# TYPE taps_replan_latency_seconds histogram\n")
	r.PlannerLatency().WritePrometheus(&b, "taps_replan_latency_seconds", "")

	if ds := r.DeclogStats(); ds.Records > 0 || ds.Truncations > 0 {
		b.WriteString("# HELP taps_declog_records_total Decision-log records appended.\n")
		b.WriteString("# TYPE taps_declog_records_total counter\n")
		fmt.Fprintf(&b, "taps_declog_records_total %d\n", ds.Records)
		b.WriteString("# HELP taps_declog_bytes_total Decision-log bytes written (frame headers included).\n")
		b.WriteString("# TYPE taps_declog_bytes_total counter\n")
		fmt.Fprintf(&b, "taps_declog_bytes_total %d\n", ds.Bytes)
		b.WriteString("# HELP taps_declog_truncations_total Torn decision-log tails discarded on open.\n")
		b.WriteString("# TYPE taps_declog_truncations_total counter\n")
		fmt.Fprintf(&b, "taps_declog_truncations_total %d\n", ds.Truncations)

		b.WriteString("# HELP taps_declog_fsync_seconds Wall-clock decision-log fsync latency.\n")
		b.WriteString("# TYPE taps_declog_fsync_seconds histogram\n")
		r.DeclogSyncLatency().WritePrometheus(&b, "taps_declog_fsync_seconds", "")
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// WriteBuildInfo writes the taps_build_info gauge: a constant-1 series
// whose labels carry the binary's go version, VCS revision, and the
// controller's virtual-clock epoch — dashboards join it against the other
// series to spot version skew and restarts. epochUnixNano 0 omits the
// epoch label (exporters without a virtual clock).
func WriteBuildInfo(w io.Writer, epochUnixNano int64) error {
	revision := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				revision = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty && revision != "unknown" {
			revision += "-dirty"
		}
	}
	var b strings.Builder
	b.WriteString("# HELP taps_build_info Build metadata; the value is always 1.\n")
	b.WriteString("# TYPE taps_build_info gauge\n")
	fmt.Fprintf(&b, "taps_build_info{go_version=%q,revision=%q", runtime.Version(), revision)
	if epochUnixNano != 0 {
		fmt.Fprintf(&b, ",epoch_unix_nano=\"%d\"", epochUnixNano)
	}
	b.WriteString("} 1\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// formatFloat renders a float with enough precision for Prometheus
// parsing without scientific-notation surprises in the tests.
func formatFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", v), "0"), ".")
}

// Summary is the end-of-run decision/latency digest.
type Summary struct {
	Admitted  uint64
	Rejected  uint64
	Preempted uint64
	Replans   uint64
	Missed    uint64
	LinksDown uint64

	PlannerSamples uint64
	PlannerP50     float64 // milliseconds
	PlannerP95     float64
	PlannerP99     float64
	PlannerMax     float64
	PlannerMean    float64
}

// Summarize extracts the digest counters and latency quantiles.
func (r *Recorder) Summarize() Summary {
	if r == nil {
		return Summary{}
	}
	h := r.PlannerLatency()
	toMs := func(d float64) float64 { return d / 1e6 }
	return Summary{
		Admitted:       r.Count(KindTaskAdmitted),
		Rejected:       r.Count(KindTaskRejected),
		Preempted:      r.Count(KindTaskPreempted),
		Replans:        r.Count(KindReplan),
		Missed:         r.Count(KindDeadlineMissed),
		LinksDown:      r.Count(KindLinkDown),
		PlannerSamples: h.Count(),
		PlannerP50:     toMs(float64(h.Quantile(0.50))),
		PlannerP95:     toMs(float64(h.Quantile(0.95))),
		PlannerP99:     toMs(float64(h.Quantile(0.99))),
		PlannerMax:     toMs(float64(h.Max())),
		PlannerMean:    toMs(float64(h.Mean())),
	}
}

// SummaryText renders the digest as a short human-readable report
// (tapsim -obs, tapsctl shutdown). Empty string on a nil recorder.
func (r *Recorder) SummaryText() string {
	if r == nil {
		return ""
	}
	s := r.Summarize()
	var b strings.Builder
	b.WriteString("## observability summary\n")
	fmt.Fprintf(&b, "decisions: %d admitted, %d rejected, %d preempted\n",
		s.Admitted, s.Rejected, s.Preempted)
	fmt.Fprintf(&b, "runtime:   %d replans, %d deadline misses, %d link failures\n",
		s.Replans, s.Missed, s.LinksDown)
	if s.PlannerSamples > 0 {
		fmt.Fprintf(&b, "planner latency (%d samples): p50=%.3fms p95=%.3fms p99=%.3fms max=%.3fms mean=%.3fms\n",
			s.PlannerSamples, s.PlannerP50, s.PlannerP95, s.PlannerP99, s.PlannerMax, s.PlannerMean)
	}
	return b.String()
}
