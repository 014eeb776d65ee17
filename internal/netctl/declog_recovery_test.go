package netctl_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"taps/internal/netctl"
	"taps/internal/obs/declog"
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

// recoveryLog runs submitRecoveryWorkload against a controller logging to
// a fresh file, closes it and returns the file's path and bytes.
func recoveryLog(t *testing.T) (string, []byte) {
	t.Helper()
	logPath := filepath.Join(t.TempDir(), "ctl.dlg")
	ctl, addr, g := startControllerWithLog(t, logPath)
	submitRecoveryWorkload(t, addr, g)
	if err := ctl.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	return logPath, b
}

// frameEnds decodes a whole decision log and returns its records and, for
// each, the offset of the byte after it: a record boundary.
func frameEnds(t *testing.T, log []byte) ([]declog.Record, []int) {
	t.Helper()
	recs, truncated, err := declog.Read(bytes.NewReader(log))
	if err != nil || truncated {
		t.Fatalf("decision log: truncated=%v, err=%v", truncated, err)
	}
	ends := make([]int, len(recs))
	off := len(declog.Magic)
	for i := range recs {
		off += 8 + int(binary.LittleEndian.Uint32(log[off:]))
		ends[i] = off
	}
	return recs, ends
}

// TestRestartCompletesACutDecision restarts on the recovery workload's log
// cut right after task 2's Task record — a crash in the middle of writing
// a decision. The restart decides task 2 again and writes the rest of its
// decision, exactly as the uncut log has it, so task 2 is admitted and a
// retry of its probe gets its grant.
func TestRestartCompletesACutDecision(t *testing.T) {
	logPath, uncut := recoveryLog(t)
	recs, ends := frameEnds(t, uncut)
	task2, admit2 := -1, -1
	for i, r := range recs {
		switch {
		case r.Kind == declog.KindTask && r.Task == 2:
			task2 = i
		case r.Kind == declog.KindAdmit && r.Task == 2:
			admit2 = i
		}
	}
	if task2 < 0 || admit2 < task2 {
		t.Fatalf("task 2: Task record %d, Admit record %d", task2, admit2)
	}
	if err := os.WriteFile(logPath, uncut[:ends[task2]], 0o644); err != nil {
		t.Fatal(err)
	}
	ctl, addr, g := startControllerWithLog(t, logPath)
	if snap := ctl.Snapshot(); !reflect.DeepEqual(snap.AcceptedTasks, []int64{1, 2}) {
		t.Errorf("restart holds tasks %v with %d pending flows, want [1 2]", snap.AcceptedTasks, snap.PendingFlows)
	}
	got, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := ends[admit2]; len(got) < n || !bytes.Equal(got[:n], uncut[:n]) {
		t.Errorf("the restarted log differs from the uncut one before task 2's Admit (%d of %d bytes written)", len(got), n)
	}
	hosts := g.Hosts()
	b := dial(t, addr, "b", hosts[1])
	if err := b.SubmitTask(2, 20*simtime.Second, []netctl.FlowInfo{
		{ID: 21, Src: hosts[1], Dst: hosts[7], Size: 12_500_000},
	}); err != nil {
		t.Errorf("re-probe of task 2: %v", err)
	}
}

// TestRestartRefusesForeignLog restarts the recovery workload's log on
// controllers that decide differently — another topology, a narrower path
// set — and requires each to refuse it, naming the first record it does
// not reproduce, and to leave the file as it was. The first input is task
// 1's probe, record 1: its Task record names its flows by the hosts of the
// topology, and its Replan, record 2, lists the candidate paths.
func TestRestartRefusesForeignLog(t *testing.T) {
	logPath, log := recoveryLog(t)
	for _, tc := range []struct {
		name  string
		graph func() (*topology.Graph, topology.Routing)
		cfg   netctl.ControllerConfig
		first string
	}{
		{"k=4 fat-tree", func() (*topology.Graph, topology.Routing) {
			return topology.FatTree(topology.FatTreeSpec{K: 4, LinkCapacity: topology.Gbps(1)})
		}, netctl.ControllerConfig{Speedup: 5}, "record 1 differs"},
		{"MaxPaths 1", func() (*topology.Graph, topology.Routing) {
			return topology.PartialFatTree(topology.PaperTestbed())
		}, netctl.ControllerConfig{Speedup: 5, MaxPaths: 1}, "record 2 differs"},
	} {
		g, r := tc.graph()
		ctl := netctl.NewController(g, r, tc.cfg)
		err := ctl.EnableDecisionLog(logPath)
		ctl.Close()
		if err == nil || !strings.Contains(err.Error(), tc.first) {
			t.Errorf("%s: restart error %v, want one naming %q", tc.name, err, tc.first)
		}
		if got, err := os.ReadFile(logPath); err != nil || !bytes.Equal(got, log) {
			t.Errorf("%s: the refused log changed (%d -> %d bytes, %v)", tc.name, len(log), len(got), err)
		}
	}
}

// TestRestartAtEveryRecordBoundary cuts a log at every record boundary,
// restarts on the cut, and feeds the controller the inputs of the rest of
// the log through the handlers recovery uses: the file it ends with must
// be the uncut log, byte for byte. The logs are the recovery workload's,
// written by a live controller, and a 60-probe recipe log (RecipeLog).
// With -short, every seventh boundary.
func TestRestartAtEveryRecordBoundary(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 7
	}
	_, live := recoveryLog(t)
	testbed := func() *netctl.Controller {
		g, r := topology.PartialFatTree(topology.PaperTestbed())
		return netctl.NewController(g, r, netctl.ControllerConfig{Speedup: 5})
	}
	fatTree := func() *netctl.Controller {
		g, r := topology.FatTree(topology.FatTreeSpec{K: 4, LinkCapacity: topology.Gbps(1)})
		return netctl.NewController(g, topology.NewCachedRouting(r), netctl.ControllerConfig{})
	}
	for _, tc := range []struct {
		name string
		log  []byte
		ctl  func() *netctl.Controller
	}{
		{"recovery workload", live, testbed},
		{"recipe", netctl.RecipeLog(t, 60), fatTree},
	} {
		recs, ends := frameEnds(t, tc.log)
		if tc.name == "recipe" && len(recs) < 200 {
			t.Fatalf("the recipe log holds %d records, want 200 or more", len(recs))
		}
		path := filepath.Join(t.TempDir(), "ctl.dlg")
		// Boundary 0 is a log without its Meta record: a restart writes a
		// Meta of its own, so only the boundaries after it are crash
		// points a log can be recovered from.
		for k := 1; k <= len(recs); k += stride {
			if err := os.WriteFile(path, tc.log[:ends[k-1]], 0o644); err != nil {
				t.Fatal(err)
			}
			ctl := tc.ctl()
			if err := ctl.EnableDecisionLog(path); err != nil {
				t.Fatalf("%s cut after record %d: %v", tc.name, k-1, err)
			}
			// The log holds the cut plus what the controller has appended.
			for next := k + int(ctl.Recorder().DeclogStats().Records); next < len(recs); {
				if err := ctl.Redecide(&recs[next]); err != nil {
					t.Fatalf("%s cut after record %d: record %d: %v", tc.name, k-1, next, err)
				}
				n := k + int(ctl.Recorder().DeclogStats().Records)
				if n == next {
					t.Fatalf("%s cut after record %d: record %d's input wrote nothing", tc.name, k-1, next)
				}
				next = n
			}
			if err := ctl.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, tc.log) {
				t.Fatalf("%s cut after record %d: the log ends as %d bytes, the uncut one is %d", tc.name, k-1, len(got), len(tc.log))
			}
		}
		t.Logf("%s: %d records, a restart at every boundary (stride %d)", tc.name, len(recs), stride)
	}
}
