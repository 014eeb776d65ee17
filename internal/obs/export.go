package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"taps/internal/simtime"
)

// eventJSON is the wire shape of an Event. Zero-valued optional fields
// are omitted; absent numeric fields decode back to their zero value, so
// the round trip is lossless for every meaningful field.
type eventJSON struct {
	Seq        uint64  `json:"seq"`
	TimeUs     int64   `json:"t_us"`
	Kind       string  `json:"kind"`
	Task       int64   `json:"task"`
	Flow       int64   `json:"flow,omitempty"`
	Link       int32   `json:"link,omitempty"`
	Flows      int32   `json:"flows,omitempty"`
	PathsTried int64   `json:"paths_tried,omitempty"`
	DurNs      int64   `json:"dur_ns,omitempty"`
	Fraction   float64 `json:"fraction,omitempty"`
	Reason     string  `json:"reason,omitempty"`
}

// MarshalJSON renders the event as a flat JSON object with a symbolic
// kind name (one JSONL record per event).
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(eventJSON{
		Seq:        e.Seq,
		TimeUs:     int64(e.Time),
		Kind:       e.Kind.String(),
		Task:       e.Task,
		Flow:       e.Flow,
		Link:       e.Link,
		Flows:      e.Flows,
		PathsTried: e.PathsTried,
		DurNs:      int64(e.Duration),
		Fraction:   e.Fraction,
		Reason:     e.Reason,
	})
}

// UnmarshalJSON parses the eventJSON shape back into an Event.
func (e *Event) UnmarshalJSON(data []byte) error {
	var j eventJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	kind := Kind(kindCount)
	for i, name := range kindNames {
		if name == j.Kind {
			kind = Kind(i)
			break
		}
	}
	if kind == kindCount {
		return fmt.Errorf("obs: unknown event kind %q", j.Kind)
	}
	*e = Event{
		Seq:        j.Seq,
		Time:       j.TimeUs,
		Kind:       kind,
		Task:       j.Task,
		Flow:       j.Flow,
		Link:       j.Link,
		Flows:      j.Flows,
		PathsTried: j.PathsTried,
		Duration:   time.Duration(j.DurNs),
		Fraction:   j.Fraction,
		Reason:     j.Reason,
	}
	return nil
}

// WriteJSONL writes the events as one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil { //taps:allow lockorder the closure-local mu exists solely to serialize JSONL lines onto w
			return err
		}
	}
	return nil
}

// JSONLSink returns a Recorder sink that streams every event to w as one
// JSONL record, serialized across concurrent Record callers. Write errors
// silently drop subsequent output (the recorder itself is unaffected).
func JSONLSink(w io.Writer) func(Event) {
	var mu sync.Mutex
	enc := json.NewEncoder(w)
	failed := false
	return func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		if failed {
			return
		}
		if err := enc.Encode(ev); err != nil { //taps:allow lockorder the closure-local mu exists solely to serialize JSONL lines onto w
			failed = true
		}
	}
}

// FormatEvent renders one event as a human-readable line for verbose
// streaming (tapsim -v).
func FormatEvent(e Event) string {
	at := fmt.Sprintf("[%12.3fms]", simtime.ToMillis(e.Time))
	switch e.Kind {
	case KindTaskAdmitted:
		if e.Reason != "" {
			return fmt.Sprintf("%s task %d admitted (%s)", at, e.Task, e.Reason)
		}
		return fmt.Sprintf("%s task %d admitted", at, e.Task)
	case KindTaskRejected:
		return fmt.Sprintf("%s task %d rejected (%s)", at, e.Task, e.Reason)
	case KindTaskPreempted:
		return fmt.Sprintf("%s task %d preempted at %.1f%% complete (%s)",
			at, e.Task, 100*e.Fraction, e.Reason)
	case KindReplan:
		return fmt.Sprintf("%s replan: %d flows, %d paths tried, %v",
			at, e.Flows, e.PathsTried, e.Duration)
	case KindDeadlineMissed:
		return fmt.Sprintf("%s flow %d (task %d) missed its deadline", at, e.Flow, e.Task)
	case KindLinkDown:
		return fmt.Sprintf("%s link %d down", at, e.Link)
	}
	return fmt.Sprintf("%s %s", at, e.Kind)
}

// WritePrometheus writes the recorder's state in the Prometheus text
// exposition format (version 0.0.4): per-kind event counters, the planner
// latency histogram with cumulative log buckets, and per-link utilization
// gauges. linkName, if non-nil, labels links; otherwise the numeric ID is
// used. A nil recorder writes nothing.
func WritePrometheus(w io.Writer, r *Recorder, linkName func(int32) string) error {
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

	links := r.LinkStats()
	sampled := false
	for _, s := range links {
		if s.Samples > 0 {
			sampled = true
			break
		}
	}
	if sampled {
		name := func(i int32) string {
			if linkName != nil {
				return linkName(i)
			}
			return fmt.Sprintf("%d", i)
		}
		b.WriteString("# HELP taps_link_utilization_peak Highest sampled utilization per link (0..1).\n")
		b.WriteString("# TYPE taps_link_utilization_peak gauge\n")
		for i, s := range links {
			if s.Samples > 0 {
				fmt.Fprintf(&b, "taps_link_utilization_peak{link=%q} %s\n", name(int32(i)), formatFloat(s.Peak))
			}
		}
		b.WriteString("# HELP taps_link_busy_seconds_total Virtual time each link carried traffic.\n")
		b.WriteString("# TYPE taps_link_busy_seconds_total counter\n")
		for i, s := range links {
			if s.Samples > 0 {
				fmt.Fprintf(&b, "taps_link_busy_seconds_total{link=%q} %s\n",
					name(int32(i)), formatFloat(float64(s.BusyTime)/1e6))
			}
		}
	}
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

// SummaryText renders the digest plus the top busiest links as a short
// human-readable report (tapsim -obs, tapsctl shutdown). linkName labels
// links when non-nil. Empty string on a nil recorder.
func (r *Recorder) SummaryText(linkName func(int32) string) string {
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
	type linkRow struct {
		id   int32
		stat LinkStat
	}
	var rows []linkRow
	for i, st := range r.LinkStats() {
		if st.Samples > 0 {
			rows = append(rows, linkRow{int32(i), st})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].stat.Peak != rows[j].stat.Peak {
			return rows[i].stat.Peak > rows[j].stat.Peak
		}
		return rows[i].id < rows[j].id
	})
	if len(rows) > 0 {
		b.WriteString("busiest links (peak util, busy time):\n")
		for i, row := range rows {
			if i >= 5 {
				break
			}
			label := fmt.Sprintf("link %d", row.id)
			if linkName != nil {
				label = linkName(row.id)
			}
			fmt.Fprintf(&b, "  %-24s %5.1f%%  %.3fms\n",
				label, 100*row.stat.Peak, simtime.ToMillis(row.stat.BusyTime))
		}
	}
	return b.String()
}
