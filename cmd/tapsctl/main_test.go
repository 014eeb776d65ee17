package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"taps/internal/netctl"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// TestBuildTopology pins the graphs tapsctl builds at its flag defaults,
// which tapsload and tapstopo share: a tapsload started with the same
// -topo claims the controller's hosts.
func TestBuildTopology(t *testing.T) {
	cases := []struct {
		topo  string
		hosts int
	}{
		{"testbed", 8},
		{"tree", 4 * 4 * 10},
		{"fattree", 16},              // k=4: k^3/4
		{"bcube", 4 * 4 * 4 * 4 * 4}, // n=4, k=4: n^(k+1)
	}
	for _, c := range cases {
		g, r, err := topology.ByName(c.topo, topology.DefaultSizes())
		if err != nil {
			t.Fatalf("%s: %v", c.topo, err)
		}
		if len(g.Hosts()) != c.hosts {
			t.Errorf("%s: hosts = %d, want %d", c.topo, len(g.Hosts()), c.hosts)
		}
		if r == nil {
			t.Errorf("%s: nil routing", c.topo)
		}
	}
}

// TestReplayReadsServedLog: a controller started without -declog still
// serves its decision log on GET /declog, and `tapsctl -replay` reads
// those bytes: the summary, the trace and -why rejected all come back.
func TestReplayReadsServedLog(t *testing.T) {
	g, r, err := topology.ByName("testbed", topology.DefaultSizes())
	if err != nil {
		t.Fatal(err)
	}
	ctl := netctl.NewController(g, r, netctl.ControllerConfig{Speedup: 5})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- ctl.ServeListener(l) }()
	defer func() {
		ctl.Close()
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	hosts := g.Hosts()
	a, err := netctl.Dial(l.Addr().String(), "a", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// 125 MB against a 10 ms virtual deadline cannot fit 1 Gbps.
	if err := a.SubmitTask(7, 10*simtime.Millisecond, []netctl.FlowInfo{
		{ID: 700, Src: hosts[0], Dst: hosts[7], Size: 125_000_000},
	}); !errors.Is(err, netctl.ErrRejected) {
		t.Fatalf("task 7: err = %v, want ErrRejected", err)
	}

	srv := httptest.NewServer(ctl.HTTPHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/declog")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("GET /declog: HTTP %d, %v", resp.StatusCode, err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "served.dlg")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	if err := runReplay(&out, path, 0, "", ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(source netctl,") || !strings.Contains(out.String(), "1 rejected") {
		t.Fatalf("replay summary:\n%s", out.String())
	}
	out.Reset()
	if err := runReplay(&out, path, 0, "rejected", filepath.Join(dir, "trace.json")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "task 7 — REJECTED") {
		t.Fatalf("replay -why rejected:\n%s", out.String())
	}
	if trace, err := os.ReadFile(filepath.Join(dir, "trace.json")); err != nil || !json.Valid(trace) {
		t.Fatalf("replay -trace wrote %d bytes (err %v), want trace_event JSON", len(trace), err)
	}
}
