package main

import (
	"testing"

	"taps/internal/experiments"
)

// TestFig8ReusesFig6Run: within one invocation Fig. 8 must be a relabelled
// view of the Fig. 6 sweep already run, not a second sweep.
func TestFig8ReusesFig6Run(t *testing.T) {
	fig6Run = nil
	defer func() { fig6Run = nil }()
	scale := experiments.BenchScale()
	scheds := []string{"FairSharing", "TAPS"}
	f6, err := sweepFigure("6", scale, scheds)
	if err != nil {
		t.Fatal(err)
	}
	f8, err := sweepFigure("8", scale, scheds)
	if err != nil {
		t.Fatal(err)
	}
	if f6.Figure != "fig6" || f8.Figure != "fig8" {
		t.Fatalf("figures = %s, %s", f6.Figure, f8.Figure)
	}
	if &f6.WastedBandwidth[0] != &f8.WastedBandwidth[0] {
		t.Fatal("fig 8 re-ran the sweep instead of reusing the fig 6 run")
	}
}
