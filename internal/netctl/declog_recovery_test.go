package netctl_test

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"taps/internal/netctl"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// startControllerWithLog boots a controller whose decision log lives at
// logPath (recovering from it if it already holds records).
func startControllerWithLog(t *testing.T, logPath string) (*netctl.Controller, string, *topology.Graph) {
	t.Helper()
	g, r := topology.PartialFatTree(topology.PaperTestbed())
	ctl := netctl.NewController(g, r, netctl.ControllerConfig{Speedup: 5})
	if err := ctl.EnableDecisionLog(logPath); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- ctl.Serve("127.0.0.1:0") }()
	deadline := time.Now().Add(2 * time.Second)
	for ctl.Addr() == "" {
		if time.Now().After(deadline) {
			t.Fatal("controller did not bind")
		}
		time.Sleep(time.Millisecond)
	}
	t.Cleanup(func() {
		ctl.Close()
		if err := <-errCh; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return ctl, ctl.Addr(), g
}

// submitRecoveryWorkload drives a mix of decisions through the controller:
// two long-running accepted tasks (their flows stay in flight for hundreds
// of virtual ms) and one hopeless task the reject rule discards.
func submitRecoveryWorkload(t *testing.T, addr string, g *topology.Graph) {
	t.Helper()
	hosts := g.Hosts()
	a := dial(t, addr, "a", hosts[0])
	b := dial(t, addr, "b", hosts[1])
	// 12.5 MB at 1 Gbps = 100 virtual ms of transmission each.
	if err := a.SubmitTask(1, 20*simtime.Second, []netctl.FlowInfo{
		{ID: 11, Src: hosts[0], Dst: hosts[7], Size: 12_500_000},
		{ID: 12, Src: hosts[1], Dst: hosts[6], Size: 12_500_000},
	}); err != nil {
		t.Fatalf("task 1: %v", err)
	}
	if err := b.SubmitTask(2, 20*simtime.Second, []netctl.FlowInfo{
		{ID: 21, Src: hosts[1], Dst: hosts[7], Size: 12_500_000},
	}); err != nil {
		t.Fatalf("task 2: %v", err)
	}
	// 125 MB against 10 virtual ms cannot fit 1 Gbps: rejected, logged.
	if err := a.SubmitTask(3, 10*simtime.Millisecond, []netctl.FlowInfo{
		{ID: 31, Src: hosts[0], Dst: hosts[7], Size: 125_000_000},
	}); !errors.Is(err, netctl.ErrRejected) {
		t.Fatalf("task 3 err = %v, want ErrRejected", err)
	}
}

// requireSameWorld compares the parts of two controller snapshots that the
// decision log must reproduce exactly: the accepted-task set, the pending
// flow count, and every link's planned busy calendar — with zero overlap
// violations on the recovered side (no leaked or duplicated slices).
func requireSameWorld(t *testing.T, live, recovered netctl.Snapshot) {
	t.Helper()
	if !reflect.DeepEqual(live.AcceptedTasks, recovered.AcceptedTasks) {
		t.Fatalf("accepted tasks: live %v, recovered %v", live.AcceptedTasks, recovered.AcceptedTasks)
	}
	if live.PendingFlows != recovered.PendingFlows {
		t.Fatalf("pending flows: live %d, recovered %d", live.PendingFlows, recovered.PendingFlows)
	}
	if !reflect.DeepEqual(live.LinkBusy, recovered.LinkBusy) {
		t.Fatalf("link occupancy diverged:\n live %v\nrecovered %v", live.LinkBusy, recovered.LinkBusy)
	}
	if recovered.OverlapViolations != 0 {
		t.Fatalf("recovered plan has %d overlap violations", recovered.OverlapViolations)
	}
}

// TestRestartRecoversWorldFromDecisionLog kills a controller mid-run and
// restarts it on the same log: the recovered plan state must equal the
// killed controller's final state, without contacting any agent.
func TestRestartRecoversWorldFromDecisionLog(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "ctl.dlg")
	ctlA, addr, g := startControllerWithLog(t, logPath)
	submitRecoveryWorkload(t, addr, g)

	// Kill A. Close drains handlers and flushes/closes the log, so the
	// post-Close snapshot is exactly what the log's records describe.
	if err := ctlA.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	before := ctlA.Snapshot()
	if len(before.AcceptedTasks) != 2 || before.PendingFlows == 0 {
		t.Fatalf("workload not in flight at kill time: %+v", before)
	}

	// Restart: a fresh controller over the same topology recovers its
	// world from the log alone.
	gB, rB := topology.PartialFatTree(topology.PaperTestbed())
	ctlB := netctl.NewController(gB, rB, netctl.ControllerConfig{Speedup: 5})
	if err := ctlB.EnableDecisionLog(logPath); err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer ctlB.Close()
	requireSameWorld(t, before, ctlB.Snapshot())

	// The recovered controller is live: it keeps serving and plans new
	// tasks around the recovered occupancy without double-granting.
	errCh := make(chan error, 1)
	go func() { errCh <- ctlB.Serve("127.0.0.1:0") }()
	deadline := time.Now().Add(2 * time.Second)
	for ctlB.Addr() == "" {
		if time.Now().After(deadline) {
			t.Fatal("recovered controller did not bind")
		}
		time.Sleep(time.Millisecond)
	}
	hosts := gB.Hosts()
	c := dial(t, ctlB.Addr(), "c", hosts[2])
	if err := c.SubmitTask(4, 40*simtime.Second, []netctl.FlowInfo{
		{ID: 41, Src: hosts[2], Dst: hosts[5], Size: 125_000},
	}); err != nil {
		t.Fatalf("post-recovery task: %v", err)
	}
	after := ctlB.Snapshot()
	if after.OverlapViolations != 0 {
		t.Fatalf("post-recovery plan has %d overlap violations", after.OverlapViolations)
	}
	found := false
	for _, task := range after.AcceptedTasks {
		found = found || task == 4
	}
	if !found {
		t.Fatalf("post-recovery task not accepted: %v", after.AcceptedTasks)
	}
	ctlB.Close()
	if err := <-errCh; err != nil {
		t.Errorf("serve: %v", err)
	}
}

// serve answers one GET through the controller's HTTP handler.
func serve(t *testing.T, ctl *netctl.Controller, target string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	ctl.HTTPHandler().ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	if rec.Code != 200 {
		t.Fatalf("GET %s: HTTP %d", target, rec.Code)
	}
	return rec.Body.Bytes()
}

// TestWhySurvivesRestart: a restarted controller explains a task decided
// before the restart in the very words the first controller used, and
// serves the same trace — both replay the one log.
func TestWhySurvivesRestart(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "ctl.dlg")
	ctlA, addr, g := startControllerWithLog(t, logPath)
	submitRecoveryWorkload(t, addr, g)
	whyA := serve(t, ctlA, "/why?task=3")
	if !bytes.Contains(whyA, []byte("REJECTED")) {
		t.Fatalf("first controller's /why?task=3:\n%s", whyA)
	}
	// The agents may still report flow ends until Close; the trace is
	// taken once the log is final.
	if err := ctlA.Close(); err != nil {
		t.Fatal(err)
	}
	traceA := serve(t, ctlA, "/trace")
	gB, rB := topology.PartialFatTree(topology.PaperTestbed())
	ctlB := netctl.NewController(gB, rB, netctl.ControllerConfig{Speedup: 5})
	if err := ctlB.EnableDecisionLog(logPath); err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer ctlB.Close()
	if whyB := serve(t, ctlB, "/why?task=3"); !bytes.Equal(whyA, whyB) {
		t.Fatalf("/why?task=3 changed across the restart:\nbefore:\n%s\nafter:\n%s", whyA, whyB)
	}
	if traceB := serve(t, ctlB, "/trace"); !bytes.Equal(traceA, traceB) {
		t.Fatalf("/trace changed across the restart: %d -> %d bytes", len(traceA), len(traceB))
	}
}

// TestRestartTruncatesTornTail crashes "mid-append" by stuffing a partial
// frame onto the log, then restarts: recovery must truncate the torn tail,
// count it on the health recorder, and still reproduce the world.
func TestRestartTruncatesTornTail(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "ctl.dlg")
	ctlA, addr, g := startControllerWithLog(t, logPath)
	submitRecoveryWorkload(t, addr, g)
	if err := ctlA.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	before := ctlA.Snapshot()

	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xDE, 0xAD, 0xBE, 0xEF, 0x07}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	sizeBefore := fileSize(t, logPath)

	gB, rB := topology.PartialFatTree(topology.PaperTestbed())
	ctlB := netctl.NewController(gB, rB, netctl.ControllerConfig{Speedup: 5})
	if err := ctlB.EnableDecisionLog(logPath); err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer ctlB.Close()
	requireSameWorld(t, before, ctlB.Snapshot())
	if ds := ctlB.Recorder().DeclogStats(); ds.Truncations != 1 {
		t.Fatalf("truncations counter = %d, want 1", ds.Truncations)
	}
	if got := fileSize(t, logPath); got >= sizeBefore {
		t.Fatalf("torn tail not physically truncated: %d >= %d bytes", got, sizeBefore)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
