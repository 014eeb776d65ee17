package netctl_test

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"taps/internal/netctl"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// wireTap is a raw agent that registers on a host, reads its welcome and
// then records every byte the controller sends it until the connection
// ends.
type wireTap struct {
	welcome int // length of the welcome frame
	buf     bytes.Buffer
	done    chan struct{}
}

func tapWire(t *testing.T, addr string, host topology.NodeID) *wireTap {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	hello, err := json.Marshal(netctl.Envelope{Type: netctl.TypeHello, Hello: &netctl.HelloMsg{Agent: "tap", Host: host}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(append(hello, '\n')); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	welcome, err := r.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var env netctl.Envelope
	if err := json.Unmarshal(welcome, &env); err != nil || env.Type != netctl.TypeWelcome {
		t.Fatalf("expected welcome, got %q (%v)", welcome, err)
	}
	w := &wireTap{welcome: len(welcome), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		io.Copy(&w.buf, r) // bufio.Reader hands over what it has buffered first
	}()
	return w
}

// stream waits for the controller to end the connection and returns what
// the tap recorded after its welcome.
func (w *wireTap) stream() []byte {
	<-w.done
	return w.buf.Bytes()
}

// stormWire runs the frozen-clock ctl_storm stream (driveStorm) for ops
// probes, led by a preemption, through the driver d of ctl, with three raw
// listening agents on other hosts connected too, then closes the
// controller. It returns the bytes every agent — the driver first, then
// the listeners — received after its welcome.
func stormWire(t *testing.T, ctl *netctl.Controller, d *wireDriver, hosts []topology.NodeID, ops int, afterOp func(op, accepts, rejects int)) [][]byte {
	t.Helper()
	addr := d.conn.RemoteAddr().String()
	taps := []*wireTap{tapWire(t, addr, hosts[1]), tapWire(t, addr, hosts[5]), tapWire(t, addr, hosts[9])}
	var driven bytes.Buffer
	src := d.record(&driven)
	preempt(t, d, hosts)
	driveStorm(t, d, hosts, ops, afterOp)
	// Close waits out the last decision's broadcast, then ends every
	// connection: each stream is complete once its reader sees EOF.
	if err := ctl.Close(); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, src)
	streams := [][]byte{driven.Bytes()}
	for _, tp := range taps {
		streams = append(streams, tp.stream())
	}
	return streams
}

// preempt makes the frozen-clock controller preempt a task: task 1001
// fills hosts[2]'s uplink with zero slack up to its deadline; task 1002
// needs that uplink first, and its local transfer, delivered on arrival,
// puts it ahead of the incumbent on completion fraction.
func preempt(t *testing.T, d *wireDriver, hosts []topology.NodeID) {
	t.Helper()
	src, dst := hosts[2], hosts[10]
	if !d.probe(netctl.ProbeMsg{Task: 1001, Deadline: 10 * simtime.Millisecond,
		Flows: []netctl.FlowInfo{{ID: 1001 << 8, Src: src, Dst: dst, Size: 1_250_000}}}) {
		t.Fatal("task 1001 rejected")
	}
	if !d.probe(netctl.ProbeMsg{Task: 1002, Deadline: 2 * simtime.Millisecond,
		Flows: []netctl.FlowInfo{{ID: 1002 << 8, Src: src, Dst: src, Size: 10e6},
			{ID: 1002<<8 | 1, Src: src, Dst: dst, Size: 125_000}}}) {
		t.Fatal("task 1002 rejected")
	}
}

// TestStormWireGolden pins the bytes the controller writes: the storm
// stream of 300 probes after a preemption, with rejects, as every agent
// receives it after its welcome (the welcome carries the wall-clock
// epoch, so it is left out). Every frame is a broadcast, so each agent's
// stream is the same golden file, stored gzipped. Regenerate with
//
//	UPDATE_GOLDEN=1 go test ./internal/netctl -run TestStormWireGolden
func TestStormWireGolden(t *testing.T) {
	ctl, d, hosts := startStorm(t, "")
	streams := stormWire(t, ctl, d, hosts, 300, func(int, int, int) {})
	golden := filepath.Join("testdata", "storm_wire.golden.gz")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		var gz bytes.Buffer
		zw, _ := gzip.NewWriterLevel(&gz, gzip.BestCompression)
		zw.Write(streams[0])
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, gz.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readGolden(t, golden)
	checkStreams(t, streams, want)
	// The stream must exercise every kind of outbound frame.
	for _, frag := range []string{`"type":"grant"`, `"reason":"reject rule"`, `"reason":"preempted"`, `"flows":null`} {
		if !bytes.Contains(want, []byte(frag)) {
			t.Errorf("golden stream holds no %s frame", frag)
		}
	}
}

// errWriteFault is the error faultyConn injects.
var errWriteFault = errors.New("injected write fault")

// faultyConn passes its first budget bytes through and fails every write
// after that; the write that crosses the budget is cut short.
type faultyConn struct {
	net.Conn
	budget int
	failed atomic.Bool
}

func (c *faultyConn) Write(b []byte) (int, error) {
	if len(b) <= c.budget {
		c.budget -= len(b)
		return c.Conn.Write(b)
	}
	n, _ := c.Conn.Write(b[:c.budget])
	c.budget = 0
	c.failed.Store(true)
	return n, errWriteFault
}

// faultyListener hands out the accepted connection number nth (from 0) as a
// faultyConn; the others pass through.
type faultyListener struct {
	net.Listener
	nth, accepted int
	conn          *faultyConn
}

func (l *faultyListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil || l.accepted != l.nth {
		l.accepted++
		return conn, err
	}
	l.accepted++
	l.conn.Conn = conn
	return l.conn, nil
}

// TestFailedWriteDropsAgent cuts one agent's connection short mid-storm:
// the controller's write to it fails partway through a frame. The agent
// is dropped in that decision, the failure is logged once, the agent got
// exactly the bytes before the cut, and every other agent's stream is
// still the golden one.
func TestFailedWriteDropsAgent(t *testing.T) {
	const budget = 50_000
	var mu sync.Mutex
	var faults int
	logf := func(format string, args ...any) {
		if strings.Contains(fmt.Sprintf(format, args...), errWriteFault.Error()) {
			mu.Lock()
			faults++
			mu.Unlock()
		}
	}
	// The driver is connection 0 and the faulty agent connection 1.
	fl := &faultyListener{nth: 1, conn: &faultyConn{budget: budget}}
	ctl, d, hosts := startStormWith(t, "", logf, func(l net.Listener) net.Listener {
		fl.Listener = l
		return fl
	})
	cut := tapWire(t, d.conn.RemoteAddr().String(), hosts[13])
	before := ctl.Health().Agents
	checked := false
	streams := stormWire(t, ctl, d, hosts, 300, func(op, _, _ int) {
		if checked || !fl.conn.failed.Load() {
			return
		}
		// Health waits for the decision lock: the failing decision is over.
		checked = true
		if got := ctl.Health().Agents; got != before+3-1 {
			t.Errorf("after op %d, whose broadcast failed a write: %d agents, want %d", op, got, before+3-1)
		}
	})
	if !checked {
		t.Fatal("no write failed during the storm")
	}
	mu.Lock()
	defer mu.Unlock()
	if faults != 1 {
		t.Errorf("the failed agent was logged %d times, want once", faults)
	}
	want := readGolden(t, filepath.Join("testdata", "storm_wire.golden.gz"))
	checkStreams(t, streams, want)
	// The welcome counts against the budget.
	if got, n := cut.stream(), budget-cut.welcome; !bytes.Equal(got, want[:n]) {
		t.Errorf("the failed agent received %d bytes after its welcome, want the golden stream's first %d", len(got), n)
	}
}

// checkStreams compares every agent's stream with the golden one.
func checkStreams(t *testing.T, streams [][]byte, want []byte) {
	t.Helper()
	for i, got := range streams {
		if !bytes.Equal(got, want) {
			t.Errorf("agent %d received %d bytes, want the golden %d; first difference at byte %d",
				i, len(got), len(want), firstDiff(got, want))
		}
	}
}

// readGolden returns the decompressed content of a gzipped golden file.
func readGolden(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
