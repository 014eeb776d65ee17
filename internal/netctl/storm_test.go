package netctl_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"taps/internal/netctl"
	"taps/internal/obs/declog"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// wireDriver speaks the agent protocol over a raw connection, one probe
// outstanding, so that a test decides when a flow TERMs instead of a
// sender's wall clock.
type wireDriver struct {
	t    *testing.T
	conn net.Conn
	in   *bufio.Scanner
}

func dialWire(t *testing.T, addr string, host topology.NodeID) *wireDriver {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	d := &wireDriver{t: t, conn: conn, in: bufio.NewScanner(conn)}
	d.in.Buffer(nil, 16<<20)
	d.send(netctl.Envelope{Type: netctl.TypeHello, Hello: &netctl.HelloMsg{Agent: "driver", Host: host}})
	if env := d.recv(); env.Type != netctl.TypeWelcome {
		t.Fatalf("expected welcome, got %s", env.Type)
	}
	return d
}

// record copies every byte d reads from now on into w. It returns the
// recorded source, from which the rest of the stream can be drained once
// the driver stops reading frames. Call it between frames: the welcome
// has been read and no probe is out, so nothing is buffered yet.
func (d *wireDriver) record(w io.Writer) io.Reader {
	src := io.TeeReader(d.conn, w)
	d.in = bufio.NewScanner(src)
	d.in.Buffer(nil, 16<<20)
	return src
}

func (d *wireDriver) send(env netctl.Envelope) {
	d.t.Helper()
	b, err := json.Marshal(env)
	if err != nil {
		d.t.Fatal(err)
	}
	if _, err := d.conn.Write(append(b, '\n')); err != nil {
		d.t.Fatal(err)
	}
}

func (d *wireDriver) recv() netctl.Envelope {
	d.t.Helper()
	d.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	if !d.in.Scan() {
		d.t.Fatalf("connection ended: %v", d.in.Err())
	}
	var env netctl.Envelope
	if err := json.Unmarshal(d.in.Bytes(), &env); err != nil {
		d.t.Fatalf("bad frame %q: %v", d.in.Bytes(), err)
	}
	return env
}

// probe submits a task and reads on to its decision, skipping the
// re-broadcast grants and the rejects of other tasks on the way.
func (d *wireDriver) probe(p netctl.ProbeMsg) (accepted bool) {
	d.t.Helper()
	d.send(netctl.Envelope{Type: netctl.TypeProbe, Probe: &p})
	for {
		switch env := d.recv(); {
		case env.Type == netctl.TypeGrant && env.Grant != nil && env.Grant.Task == p.Task:
			return true
		case env.Type == netctl.TypeReject && env.Reject != nil && env.Reject.Task == p.Task:
			return false
		}
	}
}

// startStorm boots the controller of tapsbench's ctl_storm workload — k=4
// fat-tree, virtual clock frozen at 0 — with its decision log at logPath
// when that is not empty, and connects one wire driver to it.
func startStorm(t *testing.T, logPath string) (*netctl.Controller, *wireDriver, []topology.NodeID) {
	t.Helper()
	return startStormWith(t, logPath, nil, nil)
}

// startStormWith is startStorm with the controller's diagnostics sent to
// logf and its listener wrapped by wrap, either of which may be nil.
func startStormWith(t *testing.T, logPath string, logf func(string, ...any), wrap func(net.Listener) net.Listener) (*netctl.Controller, *wireDriver, []topology.NodeID) {
	t.Helper()
	g, r := topology.FatTree(topology.FatTreeSpec{K: 4, LinkCapacity: topology.Gbps(1)})
	ctl := netctl.NewController(g, topology.NewCachedRouting(r), netctl.ControllerConfig{Speedup: 1e-9, Logf: logf})
	if logPath != "" {
		if err := ctl.EnableDecisionLog(logPath); err != nil {
			t.Fatal(err)
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if wrap != nil {
		l = wrap(l)
	}
	served := make(chan error, 1)
	go func() { served <- ctl.ServeListener(l) }()
	t.Cleanup(func() {
		ctl.Close()
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	hosts := g.Hosts()
	return ctl, dialWire(t, l.Addr().String(), hosts[0]), hosts
}

// driveStorm runs ops close-to-deadline probes through d — U{1..3} flows
// of 0.5–2 MB, deadlines U(20, 60) ms, a task TERM'd 32 ops after it was
// accepted — calling afterOp once each op's decision is in.
func driveStorm(t *testing.T, d *wireDriver, hosts []topology.NodeID, ops int, afterOp func(op, accepts, rejects int)) (accepts, rejects int) {
	t.Helper()
	const lifetime = 32
	rng := rand.New(rand.NewSource(1))
	live := make([][]uint64, lifetime)
	for i := 0; i < ops; i++ {
		slot := i % lifetime
		for _, fid := range live[slot] {
			d.send(netctl.Envelope{Type: netctl.TypeTerm, Term: &netctl.TermMsg{Flow: fid}})
		}
		live[slot] = live[slot][:0]
		p := netctl.ProbeMsg{
			Task:     int64(i + 1),
			Deadline: 20*simtime.Millisecond + simtime.Time(rng.Int63n(int64(40*simtime.Millisecond)+1)),
			Flows:    make([]netctl.FlowInfo, 1+rng.Intn(3)),
		}
		for j := range p.Flows {
			src := rng.Intn(len(hosts))
			dst := (src + 1 + rng.Intn(len(hosts)-1)) % len(hosts)
			p.Flows[j] = netctl.FlowInfo{ID: uint64(p.Task)<<8 | uint64(j),
				Src: hosts[src], Dst: hosts[dst], Size: 500e3 + rng.Int63n(1500e3+1)}
		}
		if d.probe(p) {
			accepts++
			for _, f := range p.Flows {
				live[slot] = append(live[slot], f.ID)
			}
		} else {
			rejects++
		}
		afterOp(i, accepts, rejects)
	}
	return accepts, rejects
}

// TestStormNeverOverlaps is the regression test for the stale grant after
// a reject: the ctl_storm stream (driveStorm) with the plan checked after
// every single op. A controller that installs a tentative pass before the
// reject rule has spoken, and lets a flow that misses in the re-plan keep
// its previous grant, ends an op in this stream with two flows on one link
// at one instant.
func TestStormNeverOverlaps(t *testing.T) {
	const ops = 700
	ctl, d, hosts := startStorm(t, "")
	accepts, rejects := driveStorm(t, d, hosts, ops, func(op, accepts, rejects int) {
		// Snapshot takes the decision lock: it sees the op complete.
		if snap := ctl.Snapshot(); snap.OverlapViolations != 0 {
			t.Fatalf("after op %d (%d accepts, %d rejects): %d link-time overlaps in the plan",
				op, accepts, rejects, snap.OverlapViolations)
		}
	})
	if rejects < ops/10 || accepts < ops/10 {
		t.Fatalf("%d accepts, %d rejects: not a storm", accepts, rejects)
	}
}

// TestScrapeDuringStorm reads /trace and /declog over and over while the
// ctl_storm stream runs against a controller that keeps its log in memory:
// each read replays or copies the log as the decisions append to it (run
// it under -race), and every page parses whole.
func TestScrapeDuringStorm(t *testing.T) {
	const ops = 200
	ctl, d, hosts := startStorm(t, "")
	srv := httptest.NewServer(ctl.HTTPHandler())
	defer srv.Close()
	stop := make(chan struct{})
	scraped := make(chan error, 1)
	go func() {
		scraped <- func() error {
			for n := 0; ; n++ {
				select {
				case <-stop:
					return nil
				default:
				}
				path := "/declog"
				if n%2 == 1 {
					path = "/trace"
				}
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					return err
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != 200 {
					return fmt.Errorf("GET %s: HTTP %d, %v", path, resp.StatusCode, err)
				}
				if path == "/declog" {
					if _, truncated, err := declog.Read(bytes.NewReader(body)); err != nil || truncated {
						return fmt.Errorf("GET /declog: %d bytes, truncated=%v, err=%v", len(body), truncated, err)
					}
				} else if !json.Valid(body) {
					return fmt.Errorf("GET /trace: %d bytes of invalid JSON", len(body))
				}
			}
		}()
	}()
	accepts, rejects := driveStorm(t, d, hosts, ops, func(int, int, int) {})
	close(stop)
	if err := <-scraped; err != nil {
		t.Fatal(err)
	}
	if tasks := len(servedTree(t, srv.URL).Tasks); tasks != accepts+rejects {
		t.Fatalf("the served log replays %d tasks; the storm decided %d", tasks, accepts+rejects)
	}
}

// TestMalformedProbeKeepsControllerUp sends probes whose flows name nodes
// outside the graph, and one without a payload, over a live connection:
// each is dropped and counted, none reaches the kernel or the decision log,
// and the same connection's next valid probe is still decided.
func TestMalformedProbeKeepsControllerUp(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "ctl.dlg")
	ctl, d, hosts := startStorm(t, logPath)
	g, _ := topology.FatTree(topology.FatTreeSpec{K: 4, LinkCapacity: topology.Gbps(1)}) // startStorm's graph
	n := topology.NodeID(g.NumNodes())
	bad := []netctl.FlowInfo{
		{ID: 1, Src: -1, Dst: hosts[1], Size: 1e6},
		{ID: 2, Src: hosts[0], Dst: 100000, Size: 1e6},
		{ID: 3, Src: n, Dst: hosts[1], Size: 1e6},
	}
	for i, fi := range bad {
		d.send(netctl.Envelope{Type: netctl.TypeProbe, Probe: &netctl.ProbeMsg{
			Task: int64(100 + i), Deadline: simtime.Second, Flows: []netctl.FlowInfo{fi}}})
	}
	d.send(netctl.Envelope{Type: netctl.TypeProbe})
	if !d.probe(netctl.ProbeMsg{Task: 1, Deadline: simtime.Second,
		Flows: []netctl.FlowInfo{{ID: 4, Src: hosts[0], Dst: hosts[1], Size: 1e6}}}) {
		t.Fatal("valid probe after the malformed ones was rejected")
	}
	if ld := ctl.Load(); ld.ProbesTotal != 1 || ld.ProbesDropped != uint64(len(bad)+1) {
		t.Fatalf("probes: %d decided, %d dropped; want 1, %d", ld.ProbesTotal, ld.ProbesDropped, len(bad)+1)
	}
	recs, _, err := declog.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Task >= 100 {
			t.Errorf("decision log holds a %v record of dropped task %d", r.Kind, r.Task)
		}
	}
}
