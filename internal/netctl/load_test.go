package netctl_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"taps/internal/netctl"
	"taps/internal/obs/declog"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// TestCloseUnderLoadKeepsDeclogClean is the graceful-drain regression
// test: Close must wait for every in-flight handle/onProbe goroutine to
// finish its write-ahead declog append before closing the log. Before the
// drain fix, a connection accepted just ahead of Close could register its
// handle goroutine after Close's wg.Wait had already passed, and its
// probe would append to a closed file — a sticky declog write error.
func TestCloseUnderLoadKeepsDeclogClean(t *testing.T) {
	g, r := topology.PartialFatTree(topology.PaperTestbed())
	ctl := netctl.NewController(g, r, netctl.ControllerConfig{Speedup: 5})
	path := filepath.Join(t.TempDir(), "decisions.declog")
	if err := ctl.EnableDecisionLog(path); err != nil {
		t.Fatal(err)
	}
	go ctl.Serve("127.0.0.1:0")
	deadline := time.Now().Add(2 * time.Second)
	for ctl.Addr() == "" {
		if time.Now().After(deadline) {
			t.Fatal("controller did not bind")
		}
		time.Sleep(time.Millisecond)
	}
	addr := ctl.Addr()
	hosts := g.Hosts()

	// A storm of short-lived agents: every loop iteration dials a fresh
	// connection and submits, so Close keeps racing new accepts — the
	// exact interleaving the drain fix covers.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a, err := netctl.Dial(addr, fmt.Sprintf("w%d-%d", w, i), hosts[w%len(hosts)])
				if err != nil {
					return // listener closed
				}
				id := int64(w)*1_000_000 + int64(i)
				a.SubmitTask(id, 500*simtime.Millisecond, []netctl.FlowInfo{
					{ID: uint64(id)*10 + 1, Src: hosts[w%len(hosts)],
						Dst: hosts[(w+5)%len(hosts)], Size: 125_000},
				})
				a.Close()
			}
		}(w)
	}
	time.Sleep(100 * time.Millisecond) // let the storm build
	if err := ctl.Close(); err != nil {
		t.Fatalf("close under load: %v", err)
	}
	close(stop)
	wg.Wait()
	if err := ctl.DecisionLog().Err(); err != nil {
		t.Fatalf("declog sticky error after close under load: %v", err)
	}
	// The log must also re-open cleanly: every record framed, no torn
	// tail beyond at most the one a crash (not a drain) may leave.
	w2, recs, err := declog.OpenAppend(path, declog.Options{})
	if err != nil {
		t.Fatalf("reopen after drain: %v", err)
	}
	w2.Close()
	if len(recs) == 0 {
		t.Fatal("no records recovered; the storm never reached the log")
	}
}

// TestStageDecompositionAndLoadEndpoints drives one real admission and
// checks the per-stage telemetry everywhere it surfaces: Load(),
// /healthz, /load, /metrics, and the SIGINT summary text.
func TestStageDecompositionAndLoadEndpoints(t *testing.T) {
	ctl, addr, g := startController(t)
	hosts := g.Hosts()
	a0 := dial(t, addr, "a0", hosts[0])
	if err := a0.SubmitTask(1, 500*simtime.Millisecond, []netctl.FlowInfo{
		{ID: 11, Src: hosts[0], Dst: hosts[7], Size: 125_000},
	}); err != nil {
		t.Fatalf("submit: %v", err)
	}

	ld := ctl.Load()
	if ld.ProbesTotal != 1 || ld.ProbesDropped != 0 {
		t.Fatalf("probes: %d decided, %d dropped; want 1, 0", ld.ProbesTotal, ld.ProbesDropped)
	}
	if ld.PeakAgents < 1 || ld.Agents < 1 {
		t.Fatalf("agents: %d live, %d peak; want >= 1", ld.Agents, ld.PeakAgents)
	}
	stages := make(map[string]netctl.StageLoad, len(ld.Stages))
	for _, s := range ld.Stages {
		stages[s.Stage] = s
	}
	for _, want := range []string{"total", "plan", "lock_wait", "decode"} {
		if stages[want].Count == 0 {
			t.Fatalf("stage %q has no samples in %+v", want, ld.Stages)
		}
	}
	if tot, plan := stages["total"], stages["plan"]; tot.TotalMaxMs < plan.TotalMaxMs {
		t.Fatalf("total stage (%vms) cannot be shorter than plan stage (%vms)",
			tot.TotalMaxMs, plan.TotalMaxMs)
	}

	srv := httptest.NewServer(ctl.HTTPHandler())
	defer srv.Close()
	var h netctl.Health
	getJSON(t, srv.URL+"/healthz", &h)
	if h.Status != "ok" {
		t.Fatalf("healthz: %+v", h)
	}
	var ld2 netctl.Load
	getJSON(t, srv.URL+"/load", &ld2)
	if ld2.ProbesTotal != 1 || len(ld2.Stages) == 0 {
		t.Fatalf("/load: %+v", ld2)
	}
	metrics := getText(t, srv.URL+"/metrics")
	for _, want := range []string{
		"taps_build_info{go_version=",
		`taps_ctl_stage_seconds_count{stage="total"} 1`,
		`taps_ctl_stage_seconds_window{stage="plan",q="0.99"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("missing %q in /metrics:\n%s", want, metrics)
		}
	}

	text := ctl.LoadSummaryText()
	for _, want := range []string{"controller load summary", "peak concurrent", "plan", "total"} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in summary:\n%s", want, text)
		}
	}
}

// TestStagesSumToTotal: on every decision lock_wait + plan + declog_sync +
// broadcast + other = total, so after any number of probes — accepted,
// rejected, duplicate — the five stage sums equal the total's sum to the
// nanosecond.
func TestStagesSumToTotal(t *testing.T) {
	ctl, addr, g := startControllerWithLog(t, filepath.Join(t.TempDir(), "stages.dlg"))
	hosts := g.Hosts()
	a0 := dial(t, addr, "a0", hosts[0])
	const probes = 40
	for i := int64(0); i < probes; i++ {
		task, deadline := i, 500*simtime.Millisecond
		switch i % 4 {
		case 2:
			deadline = simtime.Millisecond // cannot carry 12.5 MB: rejected
		case 3:
			task = i - 3 // duplicate of an accepted task: replan and re-broadcast
		}
		if err := a0.SubmitTask(task, deadline, []netctl.FlowInfo{
			{ID: uint64(100 + task), Src: hosts[0], Dst: hosts[7], Size: 12_500_000},
		}); err != nil && !errors.Is(err, netctl.ErrRejected) {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// The sketches are fed once the decision lock is released, which is
	// after the agent has its answer.
	total := ctl.StageSketch(netctl.StageTotal)
	for deadline := time.Now().Add(2 * time.Second); total.TotalCount() < probes; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d decisions timed, want %d", total.TotalCount(), probes)
		}
	}
	var sum time.Duration
	for _, s := range []netctl.Stage{netctl.StageLockWait, netctl.StagePlan,
		netctl.StageDeclogSync, netctl.StageBroadcast, netctl.StageOther} {
		sk := ctl.StageSketch(s)
		if sk.TotalCount() == 0 {
			t.Fatalf("stage %s has no samples", s)
		}
		sum += sk.TotalSum()
	}
	if sum != total.TotalSum() {
		t.Fatalf("stages sum to %v, total is %v", sum, total.TotalSum())
	}
}

// TestHealthzUnhealthyAfterClose pins the 503 path: a shutting-down
// controller must stop reporting ok.
func TestHealthzUnhealthyAfterClose(t *testing.T) {
	g, r := topology.PartialFatTree(topology.PaperTestbed())
	ctl := netctl.NewController(g, r, netctl.ControllerConfig{})
	srv := httptest.NewServer(ctl.HTTPHandler())
	defer srv.Close()
	if h := ctl.Health(); h.Status != "ok" {
		t.Fatalf("fresh controller health: %+v", h)
	}
	ctl.Close()
	resp, err := srv.Client().Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("healthz after close: HTTP %d, want 503", resp.StatusCode)
	}
	var h netctl.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "shutting down" {
		t.Fatalf("health status after close: %q", h.Status)
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

func getText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}
