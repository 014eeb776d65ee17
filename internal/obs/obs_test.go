package obs

import (
	"bytes"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Tally(KindReplan)
	r.ObservePlanner(time.Second)
	if r.Count(KindReplan) != 0 || r.PlannerLatency().Count() != 0 {
		t.Fatal("nil recorder must be inert")
	}
	if r.SummaryText() != "" {
		t.Fatal("nil summary must be empty")
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil || buf.Len() != 0 {
		t.Fatal("nil recorder must export nothing")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRecorder()
	r.Tally(KindTaskAdmitted)
	r.Tally(KindReplan)
	r.ObservePlanner(3 * time.Microsecond)
	r.Tally(KindReplan)
	r.ObservePlanner(900 * time.Microsecond)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`taps_events_total{kind="task_admitted"} 1`,
		`taps_events_total{kind="replan"} 2`,
		`taps_replan_latency_seconds_bucket{le="+Inf"} 2`,
		"taps_replan_latency_seconds_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, text)
		}
	}
	// Structural checks: every non-comment line is "name{labels} value" or
	// "name value", histogram buckets are cumulative and end with +Inf.
	var lastCum uint64
	sawInf := false
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
		if strings.HasPrefix(line, "taps_replan_latency_seconds_bucket") {
			n, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("bucket value %q: %v", fields[1], err)
			}
			if n < lastCum {
				t.Fatalf("bucket counts not cumulative at %q", line)
			}
			lastCum = n
			if strings.Contains(line, `le="+Inf"`) {
				sawInf = true
			}
		}
	}
	if !sawInf {
		t.Fatal("histogram must end with a +Inf bucket")
	}
}

func TestSummaryText(t *testing.T) {
	r := NewRecorder()
	for k := Kind(0); k < kindCount; k++ {
		r.Tally(k)
	}
	r.ObservePlanner(time.Millisecond)
	text := r.SummaryText()
	for _, want := range []string{"1 admitted", "1 rejected", "1 preempted", "1 replans", "1 deadline misses", "1 link failures", "planner latency"} {
		if !strings.Contains(text, want) {
			t.Fatalf("summary missing %q:\n%s", want, text)
		}
	}
	s := r.Summarize()
	if s != (Summary{Admitted: 1, Rejected: 1, Preempted: 1, Replans: 1, Missed: 1, LinksDown: 1,
		PlannerSamples: 1, PlannerP50: s.PlannerP50, PlannerP95: s.PlannerP95, PlannerP99: s.PlannerP99,
		PlannerMax: s.PlannerMax, PlannerMean: s.PlannerMean}) {
		t.Fatalf("summary = %+v", s)
	}
	if s.PlannerP50 <= 0 {
		t.Fatalf("p50 = %g", s.PlannerP50)
	}
	r.ObservePlanner(2 * time.Millisecond)
	text, s = r.SummaryText(), r.Summarize()
	if s.PlannerSamples != 2 || !strings.Contains(text, "planner latency ("+strconv.FormatUint(s.PlannerSamples, 10)+" samples)") {
		t.Fatalf("summary prints a sample count other than Summarize's %d:\n%s", s.PlannerSamples, text)
	}
}

func TestRecorderConcurrency(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Tally(Kind(i % int(kindCount)))
				r.ObservePlanner(time.Duration(i))
				_ = r.Count(KindReplan)
				_ = r.Summarize()
			}
		}(g)
	}
	wg.Wait()
	var want [kindCount]uint64
	for i := 0; i < 500; i++ {
		want[i%int(kindCount)] += 8
	}
	for k := Kind(0); k < kindCount; k++ {
		if n := r.Count(k); n != want[k] {
			t.Fatalf("%s = %d, want %d", k, n, want[k])
		}
	}
	if n := r.PlannerLatency().Count(); n != 8*500 {
		t.Fatalf("planner samples = %d", n)
	}
}
