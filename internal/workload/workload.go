// Package workload generates the synthetic traffic of §V-A: tasks arrive
// by a Poisson process, every task carries a number of flows that all
// arrive with it, task deadlines are exponentially distributed, flow sizes
// are normally distributed (truncated), and flow endpoints are picked
// uniformly at random among distinct hosts.
//
// All generation is driven by a caller-provided seed and is fully
// deterministic.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// Spec describes one generated workload. Zero fields fall back to the
// §V-A defaults (see Default).
type Spec struct {
	// Tasks is the number of tasks to generate.
	Tasks int
	// MeanFlowsPerTask μ: each task has max(1, round(N(μ, μ/4))) flows
	// when FixedFlowsPerTask is false, else exactly μ flows.
	MeanFlowsPerTask  int
	FixedFlowsPerTask bool
	// ArrivalRate λ is the Poisson task arrival rate in tasks/second.
	ArrivalRate float64
	// MeanDeadline is the mean of the exponential deadline distribution.
	MeanDeadline simtime.Time
	// MeanFlowSize is the mean flow size in bytes: sizes are normal with
	// sigma = mean/4 (§V-A), clamped to at least minFlowSize.
	MeanFlowSize int64
	// BackgroundTasks adds that many single-flow background transfers
	// (§III-B's "dynamic" cross traffic): they share the deadline-task
	// arrival horizon, carry backgroundSizeFactor x MeanFlowSize bytes,
	// and get deliberately slack deadlines (backgroundSlackFactor x
	// MeanDeadline) so deadline-aware schedulers can yield to urgent
	// traffic while deadline-agnostic ones let them interfere.
	BackgroundTasks int
	// Seed drives all randomness.
	Seed int64
}

// Generated flows carry at least minFlowSize bytes; a background flow
// carries backgroundSizeFactor times the mean flow size, with
// backgroundSlackFactor times the mean deadline.
const (
	minFlowSize           = 1024
	backgroundSizeFactor  = 4
	backgroundSlackFactor = 10
)

// Default returns the §V-A single-rooted defaults: 30 tasks, 1200 flows per
// task on average, λ=100 tasks/s, 40 ms mean deadline, 200 KB mean size.
func Default() Spec {
	return Spec{
		Tasks:            30,
		MeanFlowsPerTask: 1200,
		ArrivalRate:      100,
		MeanDeadline:     40 * simtime.Millisecond,
		MeanFlowSize:     200 * 1024,
		Seed:             1,
	}
}

// normalized fills in defaults for zero fields.
func (s Spec) normalized() Spec {
	d := Default()
	if s.Tasks == 0 {
		s.Tasks = d.Tasks
	}
	if s.MeanFlowsPerTask == 0 {
		s.MeanFlowsPerTask = d.MeanFlowsPerTask
	}
	if s.ArrivalRate == 0 {
		s.ArrivalRate = d.ArrivalRate
	}
	if s.MeanDeadline == 0 {
		s.MeanDeadline = d.MeanDeadline
	}
	if s.MeanFlowSize == 0 {
		s.MeanFlowSize = d.MeanFlowSize
	}
	return s
}

// Generate builds the task specs for the given topology. It panics if the
// graph has fewer than two hosts (no valid src/dst pairs exist).
func Generate(g *topology.Graph, spec Spec) []sim.TaskSpec {
	spec = spec.normalized()
	hosts := g.Hosts()
	if len(hosts) < 2 {
		panic(fmt.Sprintf("workload: graph has %d hosts; need at least 2", len(hosts)))
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	tasks := make([]sim.TaskSpec, 0, spec.Tasks)
	meanSize := float64(spec.MeanFlowSize)
	var arrival simtime.Time
	for i := 0; i < spec.Tasks; i++ {
		if i > 0 {
			arrival += expDuration(rng, 1/spec.ArrivalRate)
		}
		nFlows := spec.MeanFlowsPerTask
		if !spec.FixedFlowsPerTask {
			nFlows = int(math.Round(rng.NormFloat64()*float64(spec.MeanFlowsPerTask)/4)) + spec.MeanFlowsPerTask
			if nFlows < 1 {
				nFlows = 1
			}
		}
		deadline := simtime.Time(math.Round(rng.ExpFloat64() * float64(spec.MeanDeadline)))
		if deadline < 1 {
			deadline = 1
		}
		t := sim.TaskSpec{Arrival: arrival, Deadline: deadline}
		for j := 0; j < nFlows; j++ {
			size := int64(math.Round(rng.NormFloat64()*meanSize/4 + meanSize))
			if size < minFlowSize {
				size = minFlowSize
			}
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			for dst == src {
				dst = hosts[rng.Intn(len(hosts))]
			}
			t.Flows = append(t.Flows, sim.FlowSpec{Src: src, Dst: dst, Size: size})
		}
		tasks = append(tasks, t)
	}
	// Background cross traffic: single slack flows spread over the same
	// horizon as the deadline tasks.
	horizon := arrival
	if horizon < 1 {
		horizon = 1
	}
	for i := 0; i < spec.BackgroundTasks; i++ {
		size := int64(float64(spec.MeanFlowSize) * backgroundSizeFactor)
		deadline := simtime.Time(float64(spec.MeanDeadline) * backgroundSlackFactor)
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		for dst == src {
			dst = hosts[rng.Intn(len(hosts))]
		}
		tasks = append(tasks, sim.TaskSpec{
			Arrival:  simtime.Time(rng.Int63n(horizon)),
			Deadline: deadline,
			Flows:    []sim.FlowSpec{{Src: src, Dst: dst, Size: size}},
		})
	}
	return tasks
}

// expDuration draws an exponential duration with the given mean (seconds)
// and converts it to integer microseconds (at least 1).
func expDuration(rng *rand.Rand, meanSeconds float64) simtime.Time {
	d := simtime.Time(math.Round(rng.ExpFloat64() * meanSeconds * 1e6))
	if d < 1 {
		d = 1
	}
	return d
}

// TotalFlows returns the number of flows across all task specs.
func TotalFlows(tasks []sim.TaskSpec) int {
	n := 0
	for _, t := range tasks {
		n += len(t.Flows)
	}
	return n
}

// TotalBytes returns the number of bytes across all task specs.
func TotalBytes(tasks []sim.TaskSpec) int64 {
	var n int64
	for _, t := range tasks {
		for _, f := range t.Flows {
			n += f.Size
		}
	}
	return n
}
