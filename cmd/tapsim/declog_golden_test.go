package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"taps/internal/experiments"
	"taps/internal/obs/declog"
	"taps/internal/obs/span"
)

// genBenchDeclog runs the deterministic bench-scale simulation with the
// flight recorder writing to a file and returns the file's bytes.
func genBenchDeclog(t *testing.T) []byte {
	t.Helper()
	scale, err := experiments.ScaleByName("bench")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.dlg")
	if _, err := spanRun(scale, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestDeclogGoldenBench pins the decision log's binary encoding end to
// end: the bench-scale run is deterministic, so the log it writes must
// match the checked-in fixture byte for byte. Regenerate with
//
//	UPDATE_GOLDEN=1 go test ./cmd/tapsim -run TestDeclogGoldenBench
//
// after an intentional change to the workload, the scheduler's decisions,
// or the record encoding.
func TestDeclogGoldenBench(t *testing.T) {
	data := genBenchDeclog(t)
	golden := filepath.Join("testdata", "declog_bench.bin")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(data))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(data, want) {
		t.Fatalf("decision log deviates from golden %s: got %d bytes, want %d — the run "+
			"or the encoding changed; regenerate with UPDATE_GOLDEN=1 if intentional",
			golden, len(data), len(want))
	}
}

// TestReplayGoldenReconstructsGoldenTrace is the cross-golden acceptance
// check: replaying the checked-in decision log must reconstruct the exact
// span tree `tapsim -trace` exports — its trace_event export is
// byte-identical to testdata/trace_bench.json. The log alone carries the
// whole causal history.
func TestReplayGoldenReconstructsGoldenTrace(t *testing.T) {
	recs, truncated, err := declog.ReadFile(filepath.Join("testdata", "declog_bench.bin"))
	if err != nil {
		t.Fatalf("read golden log (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if truncated {
		t.Fatal("golden log has a torn tail")
	}
	rp := declog.NewReplayer()
	rp.ApplyAll(recs)
	m := rp.Meta()
	if m == nil || m.Source != "tapsim" || len(m.LinkNames) == 0 {
		t.Fatalf("golden log lacks a usable meta record: %+v", m)
	}
	var buf bytes.Buffer
	if err := span.WriteTraceEvents(&buf, rp.Tree()); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "trace_bench.json"))
	if err != nil {
		t.Fatalf("read golden trace: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("replayed trace deviates from the golden trace: got %d bytes, want %d",
			buf.Len(), len(want))
	}
}

// TestMemoryLogReplaysLikeGoldenLog: the tree `tapsim -trace` and -why
// serve when no -declog is given, replayed from the run's log in memory,
// is field-identical to the one the checked-in file log replays into — the
// structural form of the byte-level golden checks above.
func TestMemoryLogReplaysLikeGoldenLog(t *testing.T) {
	scale, err := experiments.ScaleByName("bench")
	if err != nil {
		t.Fatal(err)
	}
	fromMemory, err := spanRun(scale, "")
	if err != nil {
		t.Fatal(err)
	}
	recs, truncated, err := declog.ReadFile(filepath.Join("testdata", "declog_bench.bin"))
	if err != nil || truncated {
		t.Fatalf("read golden log: truncated=%v err=%v", truncated, err)
	}
	rp := declog.NewReplayer()
	rp.ApplyAll(recs)
	if len(fromMemory.Replans) == 0 || !reflect.DeepEqual(fromMemory, rp.Tree()) {
		t.Fatal("the memory log's tree differs from the golden log's")
	}
}
