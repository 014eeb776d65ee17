package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecorderSequenceAndCounts(t *testing.T) {
	r := NewRecorder(Options{Capacity: 16})
	r.Record(Event{Kind: KindTaskAdmitted, Task: 1})
	r.Record(Event{Kind: KindTaskAdmitted, Task: 2})
	r.Record(Event{Kind: KindTaskRejected, Task: 3, Reason: "reject rule"})
	r.Record(Event{Kind: KindReplan, Task: NoTask, Flows: 7, Duration: time.Millisecond})
	if r.Seq() != 4 {
		t.Fatalf("seq = %d", r.Seq())
	}
	if r.Count(KindTaskAdmitted) != 2 || r.Count(KindTaskRejected) != 1 || r.Count(KindReplan) != 1 {
		t.Fatal("counts wrong")
	}
	if r.PlannerLatency().Count() != 1 {
		t.Fatal("replan duration must feed the planner histogram")
	}
	evs := r.Events(0, 0)
	if len(evs) != 4 || evs[0].Seq != 1 || evs[3].Seq != 4 {
		t.Fatalf("events = %+v", evs)
	}
}

func TestRecorderRingOverwrite(t *testing.T) {
	r := NewRecorder(Options{Capacity: 8})
	for i := 0; i < 20; i++ {
		r.Record(Event{Kind: KindTaskAdmitted, Task: int64(i)})
	}
	evs := r.Events(0, 0)
	if len(evs) != 8 {
		t.Fatalf("ring should keep 8, got %d", len(evs))
	}
	if evs[0].Seq != 13 || evs[7].Seq != 20 {
		t.Fatalf("want seqs 13..20, got %d..%d", evs[0].Seq, evs[7].Seq)
	}
	for i, ev := range evs {
		if ev.Task != int64(12+i) {
			t.Fatalf("event %d task = %d", i, ev.Task)
		}
	}
}

// TestRecorderEventsCursorBeyondRing pins the ring-wrap cursor contract: a
// cursor older than the oldest retained event (a client that fell behind
// by more than one ring) yields the full retained ring, not an empty page,
// and paging forward from there converges on the head without gaps.
func TestRecorderEventsCursorBeyondRing(t *testing.T) {
	r := NewRecorder(Options{Capacity: 8})
	for i := 0; i < 30; i++ {
		r.Record(Event{Kind: KindTaskAdmitted, Task: int64(i)})
	}
	// Retained: seqs 23..30. A cursor inside the evicted range must clamp
	// to the oldest retained event.
	for _, since := range []uint64{1, 5, 22} {
		evs := r.Events(since, 0)
		if len(evs) != 8 || evs[0].Seq != 23 || evs[7].Seq != 30 {
			t.Fatalf("since=%d: want full ring 23..30, got %d events %+v", since, len(evs), evs)
		}
	}
	// Paging from a fallen-behind cursor with a small limit still reaches
	// the head.
	var got []uint64
	since := uint64(3)
	for pages := 0; pages < 10; pages++ {
		evs := r.Events(since, 3)
		if len(evs) == 0 {
			break
		}
		for _, ev := range evs {
			got = append(got, ev.Seq)
		}
		since = evs[len(evs)-1].Seq
	}
	if len(got) != 8 || got[0] != 23 || got[7] != 30 {
		t.Fatalf("paged seqs = %v, want 23..30", got)
	}
	// A cursor ahead of the recorder (stale state from a prior
	// incarnation) is empty, not an error.
	if evs := r.Events(100, 0); evs != nil {
		t.Fatalf("future cursor should be empty, got %+v", evs)
	}
}

func TestRecorderEventsPagination(t *testing.T) {
	r := NewRecorder(Options{Capacity: 64})
	for i := 0; i < 10; i++ {
		r.Record(Event{Kind: KindTaskAdmitted, Task: int64(i)})
	}
	page1 := r.Events(0, 4)
	if len(page1) != 4 || page1[0].Seq != 1 || page1[3].Seq != 4 {
		t.Fatalf("page1 = %+v", page1)
	}
	page2 := r.Events(page1[len(page1)-1].Seq, 4)
	if len(page2) != 4 || page2[0].Seq != 5 {
		t.Fatalf("page2 = %+v", page2)
	}
	page3 := r.Events(page2[len(page2)-1].Seq, 4)
	if len(page3) != 2 || page3[1].Seq != 10 {
		t.Fatalf("page3 = %+v", page3)
	}
	if rest := r.Events(10, 4); rest != nil {
		t.Fatalf("past the end should be empty, got %+v", rest)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(Event{Kind: KindReplan})
	r.ObservePlanner(time.Second)
	r.SampleLink(3, 0.5, 100)
	r.EnsureLinks(10)
	r.AddSink(func(Event) { t.Fatal("sink on nil recorder") })
	if r.Enabled() || r.Seq() != 0 || r.Events(0, 0) != nil || r.LinkStats() != nil {
		t.Fatal("nil recorder must be inert")
	}
	if r.SummaryText(nil) != "" {
		t.Fatal("nil summary must be empty")
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r, nil); err != nil || buf.Len() != 0 {
		t.Fatal("nil recorder must export nothing")
	}
}

func TestLinkGauges(t *testing.T) {
	r := NewRecorder(Options{})
	r.EnsureLinks(4)
	r.SampleLink(2, 0.5, 1000)
	r.SampleLink(2, 1.0, 500)
	r.SampleLink(2, 0, 250)
	r.SampleLink(-1, 1, 100) // ignored
	stats := r.LinkStats()
	if len(stats) != 4 {
		t.Fatalf("links = %d", len(stats))
	}
	s := stats[2]
	if s.Peak != 1.0 {
		t.Fatalf("peak = %g", s.Peak)
	}
	if s.BusyTime != 1500 {
		t.Fatalf("busy = %d", s.BusyTime)
	}
	if want := 0.5*1000 + 1.0*500; s.UtilTime != want {
		t.Fatalf("utilTime = %g want %g", s.UtilTime, want)
	}
	if s.Samples != 3 {
		t.Fatalf("samples = %d", s.Samples)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	r := NewRecorder(Options{})
	r.Record(Event{Time: 1500, Kind: KindTaskPreempted, Task: 4, Fraction: 0.25, Reason: "preempted"})
	r.Record(Event{Time: 2000, Kind: KindReplan, Task: NoTask, Flows: 3, PathsTried: 12, Duration: 42 * time.Microsecond})
	r.Record(Event{Time: 2500, Kind: KindDeadlineMissed, Task: 7, Flow: 19})
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, r.Events(0, 0)); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var back []Event
	for sc.Scan() {
		if !json.Valid(sc.Bytes()) {
			t.Fatalf("invalid JSONL line: %s", sc.Text())
		}
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		back = append(back, ev)
	}
	want := r.Events(0, 0)
	if len(back) != len(want) {
		t.Fatalf("lines = %d want %d", len(back), len(want))
	}
	for i := range want {
		if back[i] != want[i] {
			t.Fatalf("event %d: got %+v want %+v", i, back[i], want[i])
		}
	}
}

func TestJSONLSinkStreams(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder(Options{Capacity: 2}) // tiny ring: sink must still see all
	r.AddSink(JSONLSink(&buf))
	for i := 0; i < 6; i++ {
		r.Record(Event{Kind: KindTaskAdmitted, Task: int64(i)})
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != 6 {
		t.Fatalf("sink saw %d events, want 6", lines)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRecorder(Options{})
	r.EnsureLinks(2)
	r.Record(Event{Kind: KindTaskAdmitted, Task: 1})
	r.Record(Event{Kind: KindReplan, Task: NoTask, Flows: 2, Duration: 3 * time.Microsecond})
	r.Record(Event{Kind: KindReplan, Task: NoTask, Flows: 5, Duration: 900 * time.Microsecond})
	r.SampleLink(0, 0.75, 2_000_000)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r, func(l int32) string { return "eth0" }); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`taps_events_total{kind="task_admitted"} 1`,
		`taps_events_total{kind="replan"} 2`,
		`taps_replan_latency_seconds_bucket{le="+Inf"} 2`,
		"taps_replan_latency_seconds_count 2",
		`taps_link_utilization_peak{link="eth0"} 0.75`,
		`taps_link_busy_seconds_total{link="eth0"} 2`,
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
	r := NewRecorder(Options{})
	r.Record(Event{Kind: KindTaskAdmitted, Task: 1})
	r.Record(Event{Kind: KindTaskRejected, Task: 2, Reason: "reject rule"})
	r.Record(Event{Kind: KindTaskPreempted, Task: 3, Fraction: 0.1, Reason: "preempted"})
	r.Record(Event{Kind: KindReplan, Task: NoTask, Duration: time.Millisecond})
	r.SampleLink(0, 0.9, 100)
	text := r.SummaryText(nil)
	for _, want := range []string{"1 admitted", "1 rejected", "1 preempted", "planner latency", "busiest links"} {
		if !strings.Contains(text, want) {
			t.Fatalf("summary missing %q:\n%s", want, text)
		}
	}
	s := r.Summarize()
	if s.Admitted != 1 || s.Rejected != 1 || s.Preempted != 1 || s.Replans != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if s.PlannerP50 <= 0 {
		t.Fatalf("p50 = %g", s.PlannerP50)
	}
	r.ObservePlanner(2 * time.Millisecond)
	text, s = r.SummaryText(nil), r.Summarize()
	if s.PlannerSamples != 2 || !strings.Contains(text, "planner latency ("+strconv.FormatUint(s.PlannerSamples, 10)+" samples)") {
		t.Fatalf("summary prints a sample count other than Summarize's %d:\n%s", s.PlannerSamples, text)
	}
}

func TestRecorderConcurrency(t *testing.T) {
	r := NewRecorder(Options{Capacity: 128})
	r.EnsureLinks(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(Event{Kind: Kind(i % int(kindCount)), Task: int64(g)})
				r.SampleLink(int32(i%8), 0.5, 10)
				r.ObservePlanner(time.Duration(i))
				_ = r.Events(uint64(i), 16)
				_ = r.Count(KindReplan)
			}
		}(g)
	}
	wg.Wait()
	if r.Seq() != 8*500 {
		t.Fatalf("seq = %d", r.Seq())
	}
}
