package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"taps/internal/experiments"
)

// TestSweepFiguresGolden pins every figure of all six schedulers, end to
// end: the output of
//
//	tapsim -scale bench -fig all -seeds 2 -format csv
//
// without its "# fig N done in" timing lines must match the checked-in
// fixture byte for byte. The trace and declog goldens cover one TAPS run;
// this one covers every baseline and the simulator under them. Regenerate
// with
//
//	UPDATE_GOLDEN=1 go test ./cmd/tapsim -run TestSweepFiguresGolden
//
// after an intentional change to a scheduler, the workload or the engine.
func TestSweepFiguresGolden(t *testing.T) {
	fig6Run = nil
	defer func() { fig6Run = nil }()
	scale, err := experiments.ScaleByName("bench")
	if err != nil {
		t.Fatal(err)
	}
	scale.Seeds = 2
	var buf bytes.Buffer
	for _, fig := range allFigures {
		if err := runFigure(&buf, fig, scale, experiments.AllSchedulers(), "csv", nil); err != nil {
			t.Fatalf("fig %s: %v", fig, err)
		}
		buf.WriteString("\n") // main's separator after its timing line
	}
	golden := filepath.Join("testdata", "figures_bench.csv")
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
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("figures deviate from golden %s (got %d bytes, want %d):\n%s\nregenerate with "+
			"UPDATE_GOLDEN=1 if intentional", golden, buf.Len(), len(want), buf.String())
	}
}
