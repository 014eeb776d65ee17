package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"time"

	"taps/internal/core"
	"taps/internal/experiments"
	"taps/internal/metrics"
	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
	"taps/internal/workload"
)

// sweepWorkload is the researcher's end-to-end: one op regenerates the
// paper's two headline figures (Fig. 6 and Fig. 7, all six schedulers) at
// BenchScale from one workload seed. No sockets and no broadcast, so it is
// the control for every netctl change.
//
// Op cost varies by some 15% from one workload seed to the next, so a run
// that drew its own few dozen seeds would differ from the next run by the
// luck of the draw. Every run therefore walks the same corpus — the first
// corpus workload seeds from 0 up that the sweep can simulate — and the
// run's seed only decides where the walk starts and how it strides.
type sweepWorkload struct {
	name      string
	corpus    int // distinct workload seeds
	tracedOps int
}

// sweepCandidates bounds how many workload seeds set-up may try.
const sweepCandidates = 400

// sweepOp is the measured call.
func sweepOp(scale experiments.Scale, schedulers []string) (uint64, error) {
	f6, err := experiments.Fig6(scale, schedulers)
	if err != nil {
		return 0, err
	}
	f7, err := experiments.Fig7(scale, schedulers)
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	for _, res := range []*experiments.SweepResult{f6, f7} {
		if err := checkSweep(res, len(schedulers)); err != nil {
			return 0, err
		}
		for _, group := range [][]metrics.Series{res.TaskCompletion, res.FlowCompletion,
			res.AppThroughput, res.WastedBandwidth} {
			for _, s := range group {
				for _, y := range s.Y {
					var b [8]byte
					bits := math.Float64bits(y)
					for i := range b {
						b[i] = byte(bits >> (8 * i))
					}
					h.Write(b[:])
				}
			}
		}
	}
	return h.Sum64(), nil
}

// checkSweep validates one figure's data: a series per scheduler, a value
// per deadline point, completion ratios that are ratios.
func checkSweep(res *experiments.SweepResult, schedulers int) error {
	points := len(experiments.DeadlineSweepPoints)
	for _, group := range [][]metrics.Series{res.TaskCompletion, res.FlowCompletion} {
		if len(group) != schedulers {
			return fmt.Errorf("%s: %d series for %d schedulers", res.Figure, len(group), schedulers)
		}
		for _, s := range group {
			if len(s.Y) != points {
				return fmt.Errorf("%s/%s: %d points, want %d", res.Figure, s.Label, len(s.Y), points)
			}
			for _, y := range s.Y {
				if !(y >= 0 && y <= 1) {
					return fmt.Errorf("%s/%s: completion ratio %v", res.Figure, s.Label, y)
				}
			}
		}
	}
	return nil
}

// sweepFixture is the warmed-up state of one round: the corpus and each
// workload seed's result fingerprint.
type sweepFixture struct {
	scale         experiments.Scale
	seeds         []int64
	want          map[int64]uint64
	skipped       int
	start, stride int
	next          int
}

// newSweepFixture fills the corpus by running the op once per candidate
// workload seed; that pass is also the warm-up. A workload the seed commit
// cannot simulate (README: the PDQ stall) is skipped and counted, so that no
// measured op fails for a reason known before the clock starts.
func (w *sweepWorkload) newSweepFixture(seed int64) (*sweepFixture, error) {
	fx := &sweepFixture{scale: experiments.BenchScale(), want: make(map[int64]uint64, w.corpus)}
	schedulers := experiments.AllSchedulers()
	var lastErr error
	for c := int64(0); len(fx.seeds) < w.corpus; c++ {
		if c == sweepCandidates {
			return nil, fmt.Errorf("no %d usable workload seeds below %d: %w", w.corpus, c, lastErr)
		}
		fx.scale.Seed = c
		sum, err := sweepOp(fx.scale, schedulers)
		if err != nil {
			fx.skipped++
			lastErr = err
			continue
		}
		fx.seeds = append(fx.seeds, c)
		fx.want[c] = sum
	}
	rng := rand.New(rand.NewSource(seed))
	fx.start = rng.Intn(w.corpus)
	for fx.stride = 1 + rng.Intn(w.corpus); gcd(fx.stride, w.corpus) != 1; {
		fx.stride++
	}
	return fx, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// op runs the sweep on the walk's next workload seed and checks that the
// figures come out exactly as they did in set-up.
func (fx *sweepFixture) op() (time.Duration, error) {
	s := fx.seeds[(fx.start+fx.next*fx.stride)%len(fx.seeds)]
	fx.next++
	fx.scale.Seed = s
	t0 := time.Now()
	sum, err := sweepOp(fx.scale, experiments.AllSchedulers())
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if sum != fx.want[s] {
		return d, fmt.Errorf("workload seed %d: figures differ from the set-up pass", s)
	}
	return d, nil
}

func (w *sweepWorkload) timed(seed int64, measure time.Duration, _ string) (roundResult, error) {
	rr, _, err := w.round(seed, func(_ int, elapsed time.Duration) bool { return elapsed < measure })
	return rr, err
}

// round sets up and runs untraced ops for as long as more says so.
func (w *sweepWorkload) round(seed int64, more func(ops int, elapsed time.Duration) bool) (roundResult, *sweepFixture, error) {
	var rr roundResult
	t0 := time.Now()
	fx, err := w.newSweepFixture(seed)
	if err != nil {
		return rr, nil, err
	}
	rr.setup = time.Since(t0)
	runtime.GC()
	start := time.Now()
	var inOps time.Duration
	var ends []time.Duration // elapsed at the end of each op
	for more(rr.attempted, time.Since(start)) {
		d, err := fx.op()
		rr.attempted++
		inOps += d
		ends = append(ends, time.Since(start))
		if err != nil {
			rr.failed++
			rr.warnings = append(rr.warnings, err.Error())
			continue
		}
		rr.lat = append(rr.lat, d)
	}
	rr.elapsed = time.Since(start)
	rr.harness = rr.elapsed - inOps
	// Count whole walks of the corpus only, so that every workload seed
	// weighs the same whatever the run's seed: which seeds a partial walk
	// reaches depends on where it started.
	if whole := rr.attempted / w.corpus * w.corpus; whole > 0 && rr.failed == 0 {
		rr.lat, rr.elapsed = rr.lat[:whole], ends[whole-1]
	}
	return rr, fx, nil
}

// traced measures each op once as a whole and then again in parts: every
// scheduler alone, workload generation alone, and TAPS under a decorator
// that times the simulator's calls into it.
func (w *sweepWorkload) traced(seed int64, outDir string) (tracedResult, error) {
	var out tracedResult
	n := w.tracedOps
	ref, fx, err := w.round(seed, func(ops int, _ time.Duration) bool { return ops < n })
	if err != nil {
		return out, err
	}
	if ref.failed > 0 {
		return out, fmt.Errorf("untraced pass: %s", ref.warnings[0])
	}
	fx.next = 0
	runtime.GC()

	tr := newTracer()
	schedulers := experiments.AllSchedulers()
	var (
		ms0, ms1            runtime.MemStats
		lat                 = make([]time.Duration, 0, n)
		perSched            = make([]time.Duration, len(schedulers))
		generate, residual  time.Duration
		arrival, rates, eng time.Duration
		replans, fastAdmits int
		inOps               time.Duration
	)
	runtime.ReadMemStats(&ms0)
	for i := 0; i < n; i++ {
		t0 := tr.since()
		d, err := fx.op()
		if err != nil {
			return out, err
		}
		lat = append(lat, d)
		inOps += d
		root := tr.add(i, 0, "op", t0, tr.since())

		// What every FigN call does before it simulates: build the
		// topology, generate the workload of each deadline point.
		t0 = tr.since()
		graphs, specs := sweepInputs(fx.scale)
		gen := time.Duration(tr.since() - t0)
		tr.add(i, root, "workload.generate", t0, t0+int64(gen))
		generate += gen

		var sum time.Duration
		for s, name := range schedulers {
			t0 = tr.since()
			if _, err := sweepOp(fx.scale, []string{name}); err != nil {
				return out, err
			}
			t1 := tr.since()
			tr.add(i, root, "sched."+name, t0, t1)
			// A single-scheduler sweep pays generation again.
			d := time.Duration(t1-t0) - gen
			perSched[s] += d
			sum += d
		}
		residual += lat[i] - sum - gen

		t0 = tr.since()
		var split tracedScheduler
		for p, sp := range specs {
			taps := core.New(core.DefaultConfig())
			split.inner = taps
			eng := sim.New(graphs[p].g, graphs[p].r, &split, sp, sim.Config{MaxTime: simtime.Time(4e12)})
			if _, err := eng.Run(); err != nil {
				return out, fmt.Errorf("TAPS under the decorator: %w", err)
			}
			replans += taps.Replans()
			fastAdmits += taps.FastAdmits()
		}
		t1 := tr.since()
		run := tr.add(i, root, "sim.run_taps", t0, t1)
		tr.addFolded(i, run, "core.on_arrival", t0, t1, int64(split.arrival), split.arrivalCalls)
		tr.addFolded(i, run, "core.rates", t0, t1, int64(split.rates), split.ratesCalls)
		arrival += split.arrival
		rates += split.rates
		eng += time.Duration(t1-t0) - split.arrival - split.rates - split.other
	}
	runtime.ReadMemStats(&ms1)
	heapEnd := liveHeapMB()
	if out.spanFile, err = tr.write(outDir, w.name); err != nil {
		return out, err
	}

	perOpMs := func(d time.Duration) float64 { return float64(d) / 1e6 / float64(n) }
	m := map[string]float64{}
	for s, name := range schedulers {
		m["sched."+name+"_ms"] = perOpMs(perSched[s])
	}
	m["workload.generate_ms"] = perOpMs(generate)
	m["experiments.residual_ms"] = perOpMs(residual)
	m["experiments.corpus_skipped"] = float64(fx.skipped)
	m["core.on_arrival_ms"] = perOpMs(arrival)
	m["core.rates_ms"] = perOpMs(rates)
	m["sim.engine_self_ms"] = perOpMs(eng)
	m["core.replans"] = float64(replans)
	m["core.fast_admits"] = float64(fastAdmits)
	m["driver.harness_us"] = float64(ref.harness) / 1e3 / float64(n)
	m["driver.op_p99_ms"] = quantile(millis(lat), 0.99)
	m["trace.overhead_pct"] = (float64(inOps)/float64(ref.elapsed-ref.harness) - 1) * 100
	goMetrics(m, &ms0, &ms1, heapEnd, n)

	out.values = m
	out.attempted = 2 * n
	return out, nil
}

// topo is one figure's network.
type topo struct {
	g *topology.Graph
	r topology.Routing
}

// sweepInputs rebuilds what Fig6 and Fig7 build for scale: per deadline
// point, the figure's topology and generated workload.
func sweepInputs(scale experiments.Scale) ([]topo, [][]sim.TaskSpec) {
	tree, treeR := topology.SingleRootedTree(scale.Tree)
	fat, fatR := topology.FatTree(topology.FatTreeSpec{K: scale.FatTreeK, LinkCapacity: topology.Gbps(1)})
	figs := []struct {
		topo
		flows int
	}{
		{topo{tree, topology.NewCachedRouting(treeR)}, scale.FlowsPerTask},
		{topo{fat, topology.NewCachedRouting(fatR)}, scale.FatFlowsPerTask},
	}
	var graphs []topo
	var specs [][]sim.TaskSpec
	for _, f := range figs {
		for _, ms := range experiments.DeadlineSweepPoints {
			graphs = append(graphs, f.topo)
			specs = append(specs, workload.Generate(f.g, workload.Spec{
				Tasks:            scale.Tasks,
				MeanFlowsPerTask: f.flows,
				ArrivalRate:      scale.ArrivalRate,
				MeanDeadline:     simtime.FromMillis(ms),
				Seed:             scale.Seed,
			}))
		}
	}
	return graphs, specs
}
