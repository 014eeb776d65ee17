// Per-figure benchmarks: every table/figure of the paper's evaluation has
// a benchmark that regenerates it end to end (topology build, workload
// generation, all six schedulers, metric extraction) at the documented
// bench scale, plus one benchmark per ablation of DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// and use cmd/tapsim for the full laptop- or paper-scale tables.
package taps_test

import (
	"testing"

	"taps/internal/experiments"
)

func benchSweep(b *testing.B, run func(experiments.Scale, []string) (*experiments.SweepResult, error)) {
	b.Helper()
	scale := experiments.BenchScale()
	scheds := experiments.AllSchedulers()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := run(scale, scheds)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.TaskCompletion) != len(scheds) {
			b.Fatal("missing series")
		}
	}
}

func BenchmarkFig1Motivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(experiments.AllSchedulers()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2Motivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(experiments.AllSchedulers()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3Motivation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6DeadlineSweepSingleRooted(b *testing.B) {
	benchSweep(b, experiments.Fig6)
}

func BenchmarkFig7DeadlineSweepFatTree(b *testing.B) {
	benchSweep(b, experiments.Fig7)
}

func BenchmarkFig9SizeSweep(b *testing.B) {
	benchSweep(b, experiments.Fig9)
}

func BenchmarkFig10SingleFlowTasks(b *testing.B) {
	benchSweep(b, experiments.Fig10)
}

func BenchmarkFig11FlowsPerTask(b *testing.B) {
	benchSweep(b, experiments.Fig11)
}

func BenchmarkFig12TaskCount(b *testing.B) {
	benchSweep(b, experiments.Fig12)
}

func BenchmarkFig14Testbed(b *testing.B) {
	spec := experiments.StressTestbedSpec()
	spec.Tasks = 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig14(spec)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Series) != 2 {
			b.Fatal("missing series")
		}
	}
}

func BenchmarkExtBCube(b *testing.B) {
	benchSweep(b, experiments.ExtBCube)
}

func BenchmarkAblationNoRejectRule(b *testing.B) {
	scale := experiments.BenchScale()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationRejectRule(scale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationNoPreemption(b *testing.B) {
	scale := experiments.BenchScale()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationPreemption(scale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPathCap(b *testing.B) {
	scale := experiments.BenchScale()
	caps := []int{1, 4, 16, 64}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationPathCap(scale, caps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationOrdering(b *testing.B) {
	scale := experiments.BenchScale()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationOrdering(scale); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationVsOptimal(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cmp, err := experiments.AblationVsOptimal(10, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if cmp.TAPSTotal > cmp.OptTotal {
			b.Fatal("heuristic beat the optimum")
		}
	}
}
