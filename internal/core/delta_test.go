package core

// Differential property tests for the delta planner (delta.go): a
// successful incremental pass must be BIT-IDENTICAL — same PlanEntry
// slices, same per-link occupancy — to Planner.PlanAll over the same
// sorted requests. The engine-level tests check the property end to end
// (every committed plan state and every final flow outcome equal between
// a full-replan run and an incremental run); the direct fuzz test drives
// DeltaPlanner against the full planner through randomized interleavings
// of arrivals, transmission progress, terminations, and link-down
// invalidations.

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"taps/internal/obs/declog"
	"taps/internal/obs/span"
	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// runScenario executes the shared contended scenario under cfg and
// returns the plan snapshot at every commit, the simulation result, and
// the recorded span tree.
func runScenario(t *testing.T, cfg Config, failures []sim.LinkFailure) ([]planSnap, *sim.Result, *span.Tree) {
	t.Helper()
	g, r, specs := replayScenario()
	sched := New(cfg)
	rec := span.NewRecorder()
	var snaps []planSnap
	sched.onCommit = func(st *sim.State) { snaps = append(snaps, snapScheduler(sched)) }
	eng := sim.New(g, r, sched, specs, sim.Config{
		RecordSegments: true, Sink: declog.Sink{Spans: rec}, LinkFailures: failures,
	})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return snaps, res, rec.Snapshot()
}

// checkIncrementalMatchesFull runs the scenario twice — full replan vs
// incremental — and requires identical plan state at every commit and
// identical final flow outcomes.
func checkIncrementalMatchesFull(t *testing.T, cfg Config, failures []sim.LinkFailure) *span.Tree {
	t.Helper()
	full := cfg
	full.Incremental = false
	inc := cfg
	inc.Incremental = true
	fullSnaps, fullRes, _ := runScenario(t, full, failures)
	incSnaps, incRes, incTree := runScenario(t, inc, failures)

	if len(fullSnaps) != len(incSnaps) {
		t.Fatalf("commit counts diverged: full %d, incremental %d", len(fullSnaps), len(incSnaps))
	}
	for i := range fullSnaps {
		if !reflect.DeepEqual(fullSnaps[i], incSnaps[i]) {
			t.Fatalf("commit %d: incremental plan state diverged\n got %+v\nwant %+v",
				i, incSnaps[i], fullSnaps[i])
		}
	}
	if fullRes.EndTime != incRes.EndTime || fullRes.Events != incRes.Events {
		t.Fatalf("run shape diverged: full (end=%d, events=%d), incremental (end=%d, events=%d)",
			fullRes.EndTime, fullRes.Events, incRes.EndTime, incRes.Events)
	}
	if !reflect.DeepEqual(fullRes.Flows, incRes.Flows) {
		t.Fatal("final flow states diverged between full and incremental runs")
	}
	if !reflect.DeepEqual(fullRes.Tasks, incRes.Tasks) {
		t.Fatal("final task states diverged between full and incremental runs")
	}
	if !reflect.DeepEqual(fullRes.Segments, incRes.Segments) {
		t.Fatal("transmission segments diverged between full and incremental runs")
	}
	return incTree
}

func TestIncrementalMatchesFull(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IncrementalMaxDirtyFrac = 1 // never abort mid-pass: maximal reuse coverage
	tree := checkIncrementalMatchesFull(t, cfg, nil)
	n := 0
	for i := range tree.Replans {
		rs := &tree.Replans[i]
		if rs.Kind != span.ReplanIncremental {
			continue
		}
		n++
		if rs.Scope < 1 || rs.Scope > rs.Flows {
			t.Fatalf("incremental pass #%d: scope %d out of range [1,%d]", rs.Seq, rs.Scope, rs.Flows)
		}
	}
	if n == 0 {
		t.Fatal("no incremental pass ran; the differential property was not exercised")
	}
}

func TestIncrementalMatchesFullDefaultFrac(t *testing.T) {
	checkIncrementalMatchesFull(t, DefaultConfig(), nil)
}

func TestIncrementalMatchesFullBatchWindow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchWindow = 200 * simtime.Microsecond
	cfg.IncrementalMaxDirtyFrac = 1
	checkIncrementalMatchesFull(t, cfg, nil)
}

func TestIncrementalMatchesFullWithLinkFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IncrementalMaxDirtyFrac = 1
	checkIncrementalMatchesFull(t, cfg, []sim.LinkFailure{
		{At: 2 * simtime.Millisecond, Link: 0},
		{At: 5 * simtime.Millisecond, Link: 3},
	})
}

// TestIncrementalMatchesFullTinyBudget forces near-constant mid-pass
// aborts: the fallback path (occupancy started over, full plan, Adopt) must
// be just as bit-identical as the reuse path.
func TestIncrementalMatchesFullTinyBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IncrementalMaxDirtyFrac = 0.01
	checkIncrementalMatchesFull(t, cfg, nil)
}

// TestReplayDeterminismIncremental re-runs the flight-recorder contract
// with the delta planner on: the decision log (which now carries
// ReplanIncremental records with their Scope) must still reconstruct the
// exact plan state at every commit and the exact span tree.
func TestReplayDeterminismIncremental(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Incremental = true
	cfg.IncrementalMaxDirtyFrac = 1
	checkReplayDeterminism(t, cfg, nil)
}

func TestReplayDeterminismIncrementalLinkFailure(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Incremental = true
	cfg.IncrementalMaxDirtyFrac = 1
	checkReplayDeterminism(t, cfg, []sim.LinkFailure{
		{At: 2 * simtime.Millisecond, Link: 0},
		{At: 5 * simtime.Millisecond, Link: 3},
	})
}

// TestWhyTextShowsScope checks the operator surface: `tapsctl -why` lines
// for incremental passes name the dirty-set size.
func TestWhyTextShowsScope(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Incremental = true
	cfg.IncrementalMaxDirtyFrac = 1
	_, _, tree := runScenario(t, cfg, nil)
	trigger := int64(-1)
	for i := range tree.Replans {
		if tree.Replans[i].Kind == span.ReplanIncremental {
			trigger = tree.Replans[i].Trigger
			break
		}
	}
	if trigger < 0 {
		t.Fatal("no incremental pass recorded")
	}
	text := span.WhyText(tree, trigger, nil)
	if !strings.Contains(text, "re-planned") || !strings.Contains(text, "(incremental)") {
		t.Fatalf("why-text for task %d does not surface the incremental scope:\n%s", trigger, text)
	}
}

// synthFlow is the fuzz test's model of one in-flight flow.
type synthFlow struct {
	key      uint64
	src, dst topology.NodeID
	bytes    float64
	deadline simtime.Time
}

// TestDeltaPlannerDifferentialFuzz drives DeltaPlanner directly against
// the full planner through seeded random interleavings of arrivals,
// transmission progress (bytes drained during granted slices),
// terminations (Revoke), and link-down invalidations (Invalidate). Every
// successful incremental pass must produce bit-identical entries AND
// bit-identical per-link occupancy; the occupancy check doubles as the
// index-vs-recomputed validation (the full planner recomputes occupancy
// from scratch each pass).
func TestDeltaPlannerDifferentialFuzz(t *testing.T) {
	g, r := topology.FatTree(topology.FatTreeSpec{K: 4, LinkCapacity: topology.Gbps(1)})
	cr := topology.NewCachedRouting(r)
	hosts := g.Hosts()
	p := &Planner{Graph: g, Routing: cr, MaxPaths: 8}

	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		d := NewDeltaPlanner(p, 1) // no mid-pass abort: maximal tier coverage
		var flows []*synthFlow
		var now simtime.Time
		nextKey := uint64(1)
		incPasses := 0

		for round := 0; round < 80; round++ {
			// Arrivals.
			for k := rng.Intn(3) + 1; k > 0; k-- {
				src := hosts[rng.Intn(len(hosts))]
				dst := hosts[rng.Intn(len(hosts))]
				if src == dst {
					dst = hosts[(rng.Intn(len(hosts)-1)+1+int(src))%len(hosts)]
				}
				flows = append(flows, &synthFlow{
					key: nextKey, src: src, dst: dst,
					bytes:    float64(rng.Intn(512*1024) + 4096),
					deadline: now + simtime.Time(rng.Intn(8000)+500),
				})
				nextKey++
			}

			reqs := make([]FlowReq, len(flows))
			for i, f := range flows {
				reqs[i] = FlowReq{Key: f.key, Src: f.src, Dst: f.dst, Bytes: f.bytes, Deadline: f.deadline}
			}
			sort.SliceStable(reqs, func(i, j int) bool {
				a, b := reqs[i], reqs[j]
				if a.Deadline != b.Deadline {
					return a.Deadline < b.Deadline
				}
				if a.Bytes != b.Bytes {
					return a.Bytes < b.Bytes
				}
				return a.Key < b.Key
			})

			// Both passes leave their occupancy in the one planner: snapshot
			// the incremental pass's before the full pass starts it over. The
			// entries of the incremental pass alias records, not the planner's
			// occupancy, so they survive the full pass.
			entriesInc, stats, ok := d.PlanAll(now, reqs)
			occInc := snapOccupancy(p)
			entriesFull := p.PlanAll(now, reqs)
			occFull := snapOccupancy(p)
			if ok {
				incPasses++
				if stats.Replanned > d.MaxDirty(len(reqs)) {
					t.Fatalf("seed %d round %d: pass reported ok with %d replanned > budget %d",
						seed, round, stats.Replanned, d.MaxDirty(len(reqs)))
				}
				for i := range entriesFull {
					ei, ef := entriesInc[i], entriesFull[i]
					if !pathsEqual(ei.Path, ef.Path) || ei.Finish != ef.Finish ||
						ei.PathIndex != ef.PathIndex || ei.Candidates != ef.Candidates ||
						!sameIntervals(ei.Slices.Intervals(), ef.Slices.Intervals()) {
						t.Fatalf("seed %d round %d: entry %d (key %d) diverged\n got %+v\nwant %+v",
							seed, round, i, reqs[i].Key, ei, ef)
					}
				}
				if !reflect.DeepEqual(occInc, occFull) {
					t.Fatalf("seed %d round %d: occupancy index diverged from recomputed occupancy\n got %+v\nwant %+v",
						seed, round, occInc, occFull)
				}
			} else {
				d.Adopt(reqs, entriesFull)
			}

			// Advance time; drain bytes through each flow's granted slices.
			prev := now
			now += simtime.Time(rng.Intn(400) + 50)
			byKey := make(map[uint64]*PlanEntry, len(reqs))
			for i := range reqs {
				byKey[reqs[i].Key] = &entriesFull[i]
			}
			var live []*synthFlow
			for _, f := range flows {
				if e := byKey[f.key]; e != nil && e.Path != nil {
					rate := g.MinCapacity(e.Path)
					sent := simtime.Intersect(e.Slices, simtime.NewIntervalSet(
						simtime.Interval{Start: prev, End: now})).Total()
					f.bytes -= rate * float64(sent) / 1e6
				}
				if f.bytes <= 0.5 {
					d.Revoke(now, f.key)
					continue
				}
				live = append(live, f)
			}
			flows = live

			// Random early termination (kill/preempt analogue).
			if len(flows) > 0 && rng.Intn(10) < 2 {
				i := rng.Intn(len(flows))
				d.Revoke(now, flows[i].key)
				flows = append(flows[:i], flows[i+1:]...)
			}
			// Rare link-down analogue.
			if rng.Intn(20) == 0 {
				d.Invalidate()
			}
		}
		if incPasses < 20 {
			t.Fatalf("seed %d: only %d incremental passes in 80 rounds; fuzz lost its teeth", seed, incPasses)
		}
	}
}

// TestDeltaAllocsSteadyState pins the spans-disabled allocation budget of
// the incremental path's best case: an all-skip pass (every record
// re-validated by the generation screen, zero flows re-planned). The
// remaining allocations are the one-interval grants the head re-clip tier
// builds for the flows transmitting at now — far below the full planner's
// budget at the same sizes (TestPlannerAllocsUnchangedWithSpansDisabled:
// 51/201/801).
func TestDeltaAllocsSteadyState(t *testing.T) {
	g, r := topology.SingleRootedTree(topology.SingleRootedTreeSpec{
		Pods: 4, RacksPerPod: 4, HostsPerRack: 10, LinkCapacity: topology.Gbps(1),
	})
	cr := topology.NewCachedRouting(r)
	hosts := g.Hosts()
	baseline := map[int]float64{50: 6, 200: 20, 800: 20}
	for _, n := range []int{50, 200, 800} {
		reqs := make([]FlowReq, n)
		for i := range reqs {
			reqs[i] = FlowReq{
				Key: uint64(i), Src: hosts[i%len(hosts)], Dst: hosts[(i*7+3)%len(hosts)],
				Bytes: 200 * 1024, Deadline: simtime.Time(20+i%40) * simtime.Millisecond,
			}
			if reqs[i].Src == reqs[i].Dst {
				reqs[i].Dst = hosts[(i+1)%len(hosts)]
			}
		}
		p := &Planner{Graph: g, Routing: cr, MaxPaths: 16}
		d := NewDeltaPlanner(p, 1)
		d.Adopt(reqs, p.PlanAll(0, reqs))
		var st DeltaStats
		var ok bool
		got := testing.AllocsPerRun(3, func() {
			_, st, ok = d.PlanAll(0, reqs)
		})
		if !ok || st.Replanned != 0 {
			t.Fatalf("flows=%d: steady-state pass not all-skip (ok=%v, replanned=%d)", n, ok, st.Replanned)
		}
		if got > baseline[n] {
			t.Errorf("flows=%d: %.0f allocs/op, baseline %.0f — the incremental steady-state path regressed",
				n, got, baseline[n])
		}
	}
}

// TestDeltaRevokeFreesCapacity pins the free-bump contract: when a flow
// terminates, a later pass must let a waiting flow move into the freed
// window — a stale skip would keep the old, later allocation.
func TestDeltaRevokeFreesCapacity(t *testing.T) {
	g, r := topology.SingleRootedTree(topology.SingleRootedTreeSpec{
		Pods: 1, RacksPerPod: 1, HostsPerRack: 2, LinkCapacity: topology.Gbps(1),
	})
	cr := topology.NewCachedRouting(r)
	hosts := g.Hosts()
	p := &Planner{Graph: g, Routing: cr, MaxPaths: 4}
	d := NewDeltaPlanner(p, 1)

	// Two flows on the same host pair: the second queues behind the first.
	reqs := []FlowReq{
		{Key: 1, Src: hosts[0], Dst: hosts[1], Bytes: 100_000, Deadline: 10_000},
		{Key: 2, Src: hosts[0], Dst: hosts[1], Bytes: 100_000, Deadline: 20_000},
	}
	entries := p.PlanAll(0, reqs)
	d.Adopt(reqs, entries)
	if entries[1].Slices.Intervals()[0].Start <= entries[0].Slices.Intervals()[0].Start {
		t.Fatal("scenario broken: flow 2 did not queue behind flow 1")
	}

	// Flow 1 terminates early; flow 2 must slide forward.
	d.Revoke(0, 1)
	rest := reqs[1:]
	got, _, ok := d.PlanAll(0, rest)
	want := p.PlanAll(0, rest)
	if !ok {
		t.Fatal("single-flow pass fell back to full replan")
	}
	if !sameIntervals(got[0].Slices.Intervals(), want[0].Slices.Intervals()) {
		t.Fatalf("revoke did not free capacity: got %v, want %v",
			got[0].Slices.Intervals(), want[0].Slices.Intervals())
	}
	if got[0].Slices.Intervals()[0].Start != 0 {
		t.Fatalf("flow 2 should start at t=0 after flow 1 vanished, got %v", got[0].Slices.Intervals())
	}
}
