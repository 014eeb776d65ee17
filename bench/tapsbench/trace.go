package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// span is one timed interval of the traced run. Spans of one op share Op;
// Parent is the ID of the span that caused this one (0 for an op's root).
// Folded spans stand for many calls inside one op (socket writes, Paths
// calls): Start/End bracket them and BusyUs is the time actually spent.
// Derived spans come from the controller's stage sketches, which report a
// duration but no instant, so they are laid end to end inside the op.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Op      int     `json:"op"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	BusyUs  float64 `json:"busy_us,omitempty"`
	Calls   int64   `json:"calls,omitempty"`
	Derived bool    `json:"derived,omitempty"`
}

// tracer collects spans in memory and the counters the wrappers bump at
// each layer boundary; the file is written after the clock stops.
type tracer struct {
	epoch time.Time
	spans []span

	// Bumped by tracedConn.Write on the controller's goroutines and read
	// by the driver between ops, hence atomic.
	framesOut, bytesOut, writeNs atomic.Int64
	writeFirst, writeLast        atomic.Int64 // ns since epoch; writeFirst 0 = none yet this op

	// Bumped by tracedRouting.Paths.
	pathsCalls, pathsNs   atomic.Int64
	pathsFirst, pathsLast atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// since is the trace clock: nanoseconds from the tracer's epoch (never 0).
func (t *tracer) since() int64 { return int64(time.Since(t.epoch)) + 1 }

func (t *tracer) add(op, parent int, name string, startNs, endNs int64) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		StartUs: float64(startNs) / 1e3, EndUs: float64(endNs) / 1e3})
	return id
}

// addFolded records a span standing for calls folded together.
func (t *tracer) addFolded(op, parent int, name string, startNs, endNs, busyNs, calls int64) int {
	id := t.add(op, parent, name, startNs, endNs)
	s := &t.spans[id-1]
	s.BusyUs, s.Calls = float64(busyNs)/1e3, calls
	return id
}

// addDerived records a span whose duration is measured and whose position
// is assumed.
func (t *tracer) addDerived(op, parent int, name string, startNs, durNs int64) int {
	id := t.add(op, parent, name, startNs, startNs+durNs)
	t.spans[id-1].Derived = true
	return id
}

// write stores the spans as one JSON document under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// tracedListener hands the controller conns that count what it writes.
type tracedListener struct {
	net.Listener
	tr *tracer
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: l.tr}, nil
}

type tracedConn struct {
	net.Conn
	tr *tracer
}

var newline = []byte{'\n'}

func (c *tracedConn) Write(p []byte) (int, error) {
	t0 := c.tr.since()
	n, err := c.Conn.Write(p)
	t1 := c.tr.since()
	c.tr.writeFirst.CompareAndSwap(0, t0)
	c.tr.writeLast.Store(t1)
	c.tr.writeNs.Add(t1 - t0)
	c.tr.bytesOut.Add(int64(n))
	c.tr.framesOut.Add(int64(bytes.Count(p[:n], newline)))
	return n, err
}

// tracedRouting times the planner's calls into the routing layer.
type tracedRouting struct {
	inner topology.Routing
	tr    *tracer
}

func (r tracedRouting) Paths(src, dst topology.NodeID, max int, key uint64) []topology.Path {
	t0 := r.tr.since()
	ps := r.inner.Paths(src, dst, max, key)
	t1 := r.tr.since()
	r.tr.pathsFirst.CompareAndSwap(0, t0)
	r.tr.pathsLast.Store(t1)
	r.tr.pathsNs.Add(t1 - t0)
	r.tr.pathsCalls.Add(1)
	return ps
}

// tracedScheduler times the simulator's calls into a scheduler, split into
// the arrival path (admission + re-planning), Rates, and the other hooks.
type tracedScheduler struct {
	inner                    sim.Scheduler
	arrival, rates, other    time.Duration
	arrivalCalls, ratesCalls int64
}

func (s *tracedScheduler) Name() string { return s.inner.Name() }

func (s *tracedScheduler) OnTaskArrival(st *sim.State, task *sim.Task) {
	t0 := time.Now()
	s.inner.OnTaskArrival(st, task)
	s.arrival += time.Since(t0)
	s.arrivalCalls++
}

func (s *tracedScheduler) Rates(st *sim.State) (sim.RateMap, simtime.Time) {
	t0 := time.Now()
	m, h := s.inner.Rates(st)
	s.rates += time.Since(t0)
	s.ratesCalls++
	return m, h
}

func (s *tracedScheduler) OnFlowFinished(st *sim.State, f *sim.Flow) {
	t0 := time.Now()
	s.inner.OnFlowFinished(st, f)
	s.other += time.Since(t0)
}

func (s *tracedScheduler) OnDeadlineMissed(st *sim.State, f *sim.Flow) {
	t0 := time.Now()
	s.inner.OnDeadlineMissed(st, f)
	s.other += time.Since(t0)
}

func (s *tracedScheduler) OnTaskRejected(st *sim.State, task *sim.Task) {
	t0 := time.Now()
	s.inner.OnTaskRejected(st, task)
	s.other += time.Since(t0)
}

func (s *tracedScheduler) OnTaskPreempted(st *sim.State, task *sim.Task) {
	t0 := time.Now()
	s.inner.OnTaskPreempted(st, task)
	s.other += time.Since(t0)
}

func (s *tracedScheduler) OnLinkDown(st *sim.State, link topology.LinkID) {
	t0 := time.Now()
	s.inner.OnLinkDown(st, link)
	s.other += time.Since(t0)
}
