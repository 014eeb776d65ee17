package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taps/internal/experiments"
	"taps/internal/obs/span"
)

// TestTraceGoldenBench pins `tapsim -trace` end to end: the bench-scale
// span run is fully deterministic, so its trace_event export must match
// the checked-in golden byte for byte. Regenerate with
//
//	UPDATE_GOLDEN=1 go test ./cmd/tapsim -run TestTraceGoldenBench
//
// after an intentional change to the workload, the scheduler's decisions,
// or the export format.
func TestTraceGoldenBench(t *testing.T) {
	scale, err := experiments.ScaleByName("bench")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := spanRun(scale, "")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := span.WriteTraceEvents(&buf, tree); err != nil {
		t.Fatal(err)
	}

	// Structural validity before comparing: parseable trace_event JSON
	// with the ms display unit and a non-trivial event count.
	var tf struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" || len(tf.TraceEvents) < 100 {
		t.Fatalf("trace file = unit %q, %d events", tf.DisplayTimeUnit, len(tf.TraceEvents))
	}

	golden := filepath.Join("testdata", "trace_bench.json")
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
		t.Fatalf("trace deviates from golden %s: got %d bytes, want %d — the run "+
			"or the export format changed; regenerate with UPDATE_GOLDEN=1 if intentional",
			golden, buf.Len(), len(want))
	}
}

// TestWhyRejectedNamesHolders pins the acceptance contract of -why: the
// bench-scale run rejects tasks, and the explanation of a discarded task
// names at least one blocking link and the task(s) occupying it. The text
// itself is pinned byte for byte against testdata/why_bench.txt, the
// output of `tapsim -scale bench -why rejected`; regenerate with
//
//	UPDATE_GOLDEN=1 go test ./cmd/tapsim -run TestWhyRejectedNamesHolders
func TestWhyRejectedNamesHolders(t *testing.T) {
	scale, err := experiments.ScaleByName("bench")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := spanRun(scale, "")
	if err != nil {
		t.Fatal(err)
	}
	rejected := false
	for i := range tree.Tasks {
		if tree.Tasks[i].Outcome == span.OutcomeRejected {
			rejected = true
		}
	}
	if !rejected {
		t.Fatal("bench-scale run rejected no task; -why has nothing to explain")
	}
	var buf bytes.Buffer
	if err := printWhy(&buf, tree, "rejected"); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "REJECTED") && !strings.Contains(text, "PREEMPTED") {
		t.Fatalf("-why rejected lacks a terminal outcome:\n%s", text)
	}
	if !strings.Contains(text, "blocking links") || !strings.Contains(text, "held by") {
		t.Fatalf("-why rejected names no blocking link/holder:\n%s", text)
	}

	golden := filepath.Join("testdata", "why_bench.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
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
	if text != string(want) {
		t.Fatalf("-why rejected deviates from golden %s:\n%s\nregenerate with "+
			"UPDATE_GOLDEN=1 if intentional", golden, text)
	}
}
