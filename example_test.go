package taps_test

import (
	"fmt"

	"taps"
)

// ExampleRun simulates TAPS on a tiny deterministic workload and prints
// the headline metric.
func ExampleRun() {
	net := taps.NewSingleRootedTree(2, 2, 4)
	hosts := net.Hosts()
	tasks := []taps.TaskSpec{
		{Arrival: 0, Deadline: 10 * taps.Millisecond, Flows: []taps.FlowSpec{
			{Src: hosts[0], Dst: hosts[8], Size: 125_000}, // 1 ms at 1 Gbps
			{Src: hosts[1], Dst: hosts[9], Size: 250_000},
		}},
	}
	res, err := taps.Run(net, taps.NewTAPS(), tasks)
	if err != nil {
		panic(err)
	}
	sum := taps.Summarize(res)
	fmt.Printf("tasks completed: %d/%d\n", sum.TasksCompleted, sum.Tasks)
	// Output:
	// tasks completed: 1/1
}

// ExampleNewTAPSWith shows the ablation knobs: a TAPS variant that admits
// everything still runs, it just wastes bandwidth on doomed tasks.
func ExampleNewTAPSWith() {
	net := taps.NewSingleRootedTree(2, 2, 4)
	hosts := net.Hosts()
	tasks := []taps.TaskSpec{
		// 12.5 MB against 1 ms cannot fit a 1 Gbps path.
		{Arrival: 0, Deadline: 1 * taps.Millisecond, Flows: []taps.FlowSpec{
			{Src: hosts[0], Dst: hosts[8], Size: 12_500_000},
		}},
	}
	strict, _ := taps.Run(net, taps.NewTAPS(), tasks)
	lax, _ := taps.Run(net, taps.NewTAPSWith(taps.TAPSConfig{
		MaxPaths:          16,
		DisableRejectRule: true,
	}), tasks)
	fmt.Printf("reject rule on:  wasted %.0f bytes\n", taps.Summarize(strict).WastedBytes)
	fmt.Printf("reject rule off: wasted %.0f bytes\n", taps.Summarize(lax).WastedBytes)
	// Output:
	// reject rule on:  wasted 0 bytes
	// reject rule off: wasted 125000 bytes
}

// ExampleGenerateWorkload draws the paper's synthetic traffic.
func ExampleGenerateWorkload() {
	net := taps.NewFatTree(4)
	tasks := taps.GenerateWorkload(net, taps.WorkloadSpec{
		Tasks:             3,
		MeanFlowsPerTask:  5,
		FixedFlowsPerTask: true,
		Seed:              1,
	})
	fmt.Printf("%d tasks, %d flows each\n", len(tasks), len(tasks[0].Flows))
	// Output:
	// 3 tasks, 5 flows each
}

// ExampleRunWithOptions records two schedulers through RunOptions.Obs
// alone: the engine counts every scheduler's admissions and times its
// planner — each Rates call of a baseline, each planning pass of TAPS.
func ExampleRunWithOptions() {
	net := taps.NewFatTree(4)
	tasks := taps.GenerateWorkload(net, taps.WorkloadSpec{Tasks: 20, MeanFlowsPerTask: 5, Seed: 1})
	for _, s := range []taps.Scheduler{taps.NewFairSharing(), taps.NewTAPS()} {
		rec := taps.NewRecorder()
		if _, err := taps.RunWithOptions(net, s, tasks, taps.RunOptions{Obs: rec}); err != nil {
			panic(err)
		}
		sum := rec.Summarize()
		fmt.Printf("%s: %d admitted, planner timed: %v", s.Name(), sum.Admitted, sum.PlannerSamples > 0)
		if s.Name() == "TAPS" {
			fmt.Printf(", one sample per replan: %v", sum.PlannerSamples == sum.Replans)
		}
		fmt.Println()
	}
	// Output:
	// FairSharing: 20 admitted, planner timed: true
	// TAPS: 16 admitted, planner timed: true, one sample per replan: true
}
