package netctl_test

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"taps/internal/core"
	"taps/internal/netctl"
	"taps/internal/obs/declog"
	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// decisionRecords reads a decision log and keeps what the kernel wrote:
// every planning pass with its per-flow plans, attribution chains,
// admit/reject/preempt and commits. Lifecycle records — arrivals,
// terminals, segments, the log's identity — belong to the adapter and are
// dropped.
func decisionRecords(t *testing.T, path string) []declog.Record {
	t.Helper()
	recs, truncated, err := declog.ReadFile(path)
	if err != nil || truncated {
		t.Fatalf("read %s: truncated=%v err=%v", path, truncated, err)
	}
	var out []declog.Record
	for _, rec := range recs {
		switch rec.Kind {
		case declog.KindReplan, declog.KindAttr, declog.KindAdmit,
			declog.KindReject, declog.KindPreempt, declog.KindCommit:
			out = append(out, rec)
		}
	}
	return out
}

// TestSimAndControllerDecideAlike drives one task stream — every arrival
// at t = 0, so the controller's frozen clock and the simulator agree on
// now — once through sim.Engine + core.Scheduler and once through a
// netctl.Controller over TCP, each with a decision log. Both are adapters
// around one kernel, so the decision records must be equal one for one.
func TestSimAndControllerDecideAlike(t *testing.T) {
	g, r := topology.FatTree(topology.FatTreeSpec{K: 4, LinkCapacity: topology.Gbps(1)})
	h := g.Hosts()
	ms := simtime.Millisecond
	flow := func(src, dst int, size int64) sim.FlowSpec {
		return sim.FlowSpec{Src: h[src], Dst: h[dst], Size: size}
	}
	streams := map[string]struct {
		specs []sim.TaskSpec
		want  []declog.Kind // the decision each task must end in
	}{
		// Host 1's uplink carries 8 ms flows; the third task cannot fit its
		// own deadline and the fourth would push an admitted one past its.
		"rejects": {
			specs: []sim.TaskSpec{
				{Deadline: 30 * ms, Flows: []sim.FlowSpec{flow(1, 9, 1e6), flow(1, 10, 1e6), flow(2, 9, 1e6)}},
				{Deadline: 40 * ms, Flows: []sim.FlowSpec{flow(1, 11, 1e6), flow(3, 9, 1e6)}},
				{Deadline: 20 * ms, Flows: []sim.FlowSpec{flow(1, 12, 1e6), flow(1, 13, 1e6), flow(1, 14, 1e6)}},
				{Deadline: 24 * ms, Flows: []sim.FlowSpec{flow(1, 12, 2e6)}},
				{Deadline: 60 * ms, Flows: []sim.FlowSpec{flow(4, 12, 1e6), flow(1, 5, 500e3)}},
			},
			want: []declog.Kind{declog.KindAdmit, declog.KindAdmit, declog.KindReject, declog.KindReject, declog.KindAdmit},
		},
		// The second task's local transfer is delivered on arrival, so it is
		// ahead of the zero-slack incumbent its urgent flow displaces.
		"preempts": {
			specs: []sim.TaskSpec{
				{Deadline: 10 * ms, Flows: []sim.FlowSpec{flow(1, 9, 1_250_000)}},
				{Deadline: 2 * ms, Flows: []sim.FlowSpec{flow(1, 1, 10e6), flow(1, 9, 125_000)}},
				{Deadline: 50 * ms, Flows: []sim.FlowSpec{flow(1, 9, 1e6)}},
			},
			want: []declog.Kind{declog.KindPreempt, declog.KindAdmit, declog.KindAdmit},
		},
	}
	for name, stream := range streams {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()

			simLog := filepath.Join(dir, "sim.dlg")
			dl, err := declog.Create(simLog, declog.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sched := core.New(core.DefaultConfig())
			if _, err := sim.New(g, r, sched, stream.specs, sim.Config{Sink: declog.Sink{Log: dl}}).Run(); err != nil {
				t.Fatal(err)
			}
			if err := dl.Close(); err != nil {
				t.Fatal(err)
			}

			ctlLog := filepath.Join(dir, "ctl.dlg")
			ctl := netctl.NewController(g, r, netctl.ControllerConfig{Speedup: 1e-9})
			if err := ctl.EnableDecisionLog(ctlLog); err != nil {
				t.Fatal(err)
			}
			served := make(chan error, 1)
			go func() { served <- ctl.Serve("127.0.0.1:0") }()
			for deadline := time.Now().Add(2 * time.Second); ctl.Addr() == ""; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("controller did not bind")
				}
			}
			// Host 0 sources no flow, so this agent never starts a sender.
			a, err := netctl.Dial(ctl.Addr(), "a", h[0])
			if err != nil {
				t.Fatal(err)
			}
			var fid uint64 // the simulator numbers flows in arrival order
			for task, spec := range stream.specs {
				flows := make([]netctl.FlowInfo, len(spec.Flows))
				for i, f := range spec.Flows {
					flows[i] = netctl.FlowInfo{ID: fid, Src: f.Src, Dst: f.Dst, Size: f.Size}
					fid++
				}
				err := a.SubmitTask(int64(task), spec.Deadline, flows)
				if rejected := stream.want[task] == declog.KindReject; (err != nil) != rejected {
					t.Fatalf("task %d: submit err = %v, want rejected = %v", task, err, rejected)
				}
			}
			a.Close()
			if err := ctl.Close(); err != nil {
				t.Fatal(err)
			}
			if err := <-served; err != nil {
				t.Fatal(err)
			}

			fromSim, fromCtl := decisionRecords(t, simLog), decisionRecords(t, ctlLog)
			if len(fromSim) != len(fromCtl) {
				t.Fatalf("simulator logged %d decision records, controller %d", len(fromSim), len(fromCtl))
			}
			for i := range fromSim {
				if !reflect.DeepEqual(fromSim[i], fromCtl[i]) {
					t.Fatalf("decision record %d differs\n sim %+v\n ctl %+v", i, fromSim[i], fromCtl[i])
				}
			}
			fate := make(map[int64]declog.Kind)
			for _, rec := range fromSim {
				switch rec.Kind {
				case declog.KindAdmit, declog.KindReject, declog.KindPreempt:
					fate[rec.Task] = rec.Kind
				}
			}
			for task, want := range stream.want {
				if fate[int64(task)] != want {
					t.Fatalf("task %d ended in %s, the stream was built for %s", task, fate[int64(task)], want)
				}
			}
		})
	}
}
