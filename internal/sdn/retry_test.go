package sdn

import (
	"testing"

	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// TestLateReplyIsNotRetried: a reply that is only late is not lost. At a
// control latency of 20 ticks the round trip (40 ticks) outlasts
// probeRetryTicks, and the senders must still wait for it: one 2-flow task
// costs a probe, a grant and two TERMs, and the kernel plans once.
func TestLateReplyIsNotRetried(t *testing.T) {
	g, r := topology.PartialFatTree(topology.PaperTestbed())
	hosts := g.Hosts()
	tasks := []sim.TaskSpec{{Arrival: 0, Deadline: 60 * simtime.Millisecond, Flows: []sim.FlowSpec{
		{Src: hosts[0], Dst: hosts[7], Size: 100 * 1024},
		{Src: hosts[2], Dst: hosts[5], Size: 100 * 1024},
	}}}
	for _, latency := range []int{1, 10, 11, 20} {
		tb := New(g, r, ModeTAPS, Config{ControlLatencyTicks: latency}, tasks)
		res, err := tb.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.TasksCompleted != 1 || res.ControlMessages != 4 || tb.kernel.Replans() != 1 {
			t.Errorf("latency %d: %d/1 tasks completed, %d messages, %d planning passes; want 1, 4, 1",
				latency, res.TasksCompleted, res.ControlMessages, tb.kernel.Replans())
		}
	}
}
