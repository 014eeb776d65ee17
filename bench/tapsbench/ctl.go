package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"taps/internal/netctl"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// ctlWorkload is one closed-loop load shape against an in-process netctl
// controller. Time is modelled by the harness, not the wall clock: the
// controller's virtual clock is frozen at 0 (Speedup 1e-9), op i carries an
// absolute deadline, and a task accepted at op i is TERM'd at op i+lifetime,
// so the live set is stationary and the decision sequence is a pure
// function of the seed.
type ctlWorkload struct {
	name        string
	k           int // fat-tree arity
	sinks       int // connected agents besides the driver; fixture, not load
	incremental bool
	declog      bool
	lifetime    int // ops between a task's accept and its TERMs
	warmup      int // untimed ops of every set-up, lifetime fill included
	tracedOps   int // ops of the traced pass, fixed so counts repeat

	flowsLo, flowsHi       int
	sizeLo, sizeHi         int64
	deadlineLo, deadlineHi simtime.Time
	advance                simtime.Time // added to the deadline per op
	// strictOverlap makes a non-zero Snapshot().OverlapViolations at the end
	// of a run fatal. It is off where the seed commit is known not to be
	// clean (see README: counted, not fixed).
	strictOverlap bool
}

const (
	opTimeout   = 60 * time.Second
	usefulSinks = 8 // sinks whose frames are inspected in the traced pass
)

// sinkStats is what an inspected agent saw: frames received, and those
// among them that carry a flow its own host would send — the only ones an
// agent acts on.
type sinkStats struct {
	frames, useful int64
}

func (st *sinkStats) note(frame, srcKey []byte) {
	st.frames++
	if bytes.Contains(frame, srcKey) {
		st.useful++
	}
}

// fixture is everything set-up builds: topology, routing cache, controller,
// listener, connected agents, a filled live window and warmed-up state.
type fixture struct {
	w       *ctlWorkload
	ctl     *netctl.Controller
	served  chan error
	drv     *driver
	sinks   sync.WaitGroup
	seen    []sinkStats // per inspected sink, valid after close
	declog  string
	serving bool
	closed  bool
}

// newFixture runs the whole set-up. With tr non-nil the listener and the
// routing are wrapped so the traced pass can see those layer boundaries.
func newFixture(w *ctlWorkload, seed int64, tr *tracer, outDir string) (fx *fixture, err error) {
	g, r := topology.FatTree(topology.FatTreeSpec{K: w.k, LinkCapacity: topology.Gbps(1)})
	routing := topology.NewCachedRouting(r)
	if tr != nil {
		routing = tracedRouting{inner: routing, tr: tr}
	}
	ctl := netctl.NewController(g, routing, netctl.ControllerConfig{
		Speedup:     1e-9, // now() stays 0 for 1000 s of wall time
		Incremental: w.incremental,
	})
	fx = &fixture{w: w, ctl: ctl, served: make(chan error, 1)}
	defer func() {
		if err != nil {
			fx.close()
		}
	}()
	if w.declog {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return fx, err
		}
		f, err := os.CreateTemp(outDir, "declog_"+w.name+"_*.bin")
		if err != nil {
			return fx, err
		}
		fx.declog = f.Name()
		f.Close()
		if err := ctl.EnableDecisionLog(fx.declog); err != nil {
			return fx, fmt.Errorf("enable decision log: %w", err)
		}
	}
	var l net.Listener
	l, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fx, err
	}
	addr := l.Addr().String()
	if tr != nil {
		l = tracedListener{Listener: l, tr: tr}
	}
	fx.serving = true
	go func() { fx.served <- ctl.ServeListener(l) }()

	hosts := g.Hosts()
	if tr != nil {
		fx.seen = make([]sinkStats, min(usefulSinks, w.sinks))
	}
	for i := 0; i < w.sinks; i++ {
		host := hosts[(i+1)%len(hosts)]
		conn, err := dialAgent(addr, "sink"+strconv.Itoa(i), host)
		if err != nil {
			return fx, err
		}
		fx.sinks.Add(1)
		go func(i int) {
			defer fx.sinks.Done()
			defer conn.Close()
			if i < len(fx.seen) {
				fx.seen[i] = inspect(conn, host)
			} else {
				io.Copy(io.Discard, conn) // ends when the controller closes the conn
			}
		}(i)
	}
	conn, err := dialAgent(addr, "driver", hosts[0])
	if err != nil {
		return fx, err
	}
	fx.drv = newDriver(w, conn, hosts, seed, tr != nil)
	// The welcome frame is sent before the agent is registered; wait until
	// every agent is in the broadcast set so op 0 already pays full fan-out.
	for deadline := time.Now().Add(opTimeout); ctl.Health().Agents < w.sinks+1; {
		if time.Now().After(deadline) {
			return fx, fmt.Errorf("only %d of %d agents registered", ctl.Health().Agents, w.sinks+1)
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < w.warmup; i++ {
		if _, err := fx.drv.op(); err != nil {
			return fx, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return fx, nil
}

// close tears the fixture down and waits for every goroutine it started.
func (fx *fixture) close() error {
	if fx.closed {
		return nil
	}
	fx.closed = true
	err := fx.ctl.Close()
	if fx.drv != nil {
		fx.drv.conn.Close()
	}
	fx.sinks.Wait()
	if fx.serving {
		if serr := <-fx.served; err == nil {
			err = serr
		}
	}
	if fx.declog != "" {
		os.Remove(fx.declog)
	}
	return err
}

// check compares the controller's books with what the driver was told.
func (fx *fixture) check() (warnings []string, err error) {
	d := fx.drv
	h := fx.ctl.Health()
	if h.Status != "ok" {
		return nil, fmt.Errorf("controller health %q %s", h.Status, h.DeclogError)
	}
	if h.ProbesDropped != 0 || h.ProbesTotal != uint64(d.next) {
		return nil, fmt.Errorf("controller decided %d probes and dropped %d; driver sent %d",
			h.ProbesTotal, h.ProbesDropped, d.next)
	}
	snap := fx.ctl.Snapshot()
	want := make([]int64, 0, len(d.accepted))
	for t := range d.accepted {
		want = append(want, t)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(want) != len(snap.AcceptedTasks) {
		return nil, fmt.Errorf("controller holds %d accepted tasks; the driver was granted %d",
			len(snap.AcceptedTasks), len(want))
	}
	for i := range want {
		if want[i] != snap.AcceptedTasks[i] {
			return nil, fmt.Errorf("accepted ledgers differ at task %d / %d", snap.AcceptedTasks[i], want[i])
		}
	}
	if snap.OverlapViolations != 0 {
		msg := fmt.Sprintf("%d link-time overlaps in the final plan", snap.OverlapViolations)
		if fx.w.strictOverlap {
			return nil, errors.New(msg)
		}
		warnings = append(warnings, msg)
	}
	return warnings, nil
}

func dialAgent(addr, name string, host topology.NodeID) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	hello, err := json.Marshal(netctl.Envelope{Type: netctl.TypeHello,
		Hello: &netctl.HelloMsg{Agent: name, Host: host}})
	if err != nil {
		conn.Close()
		return nil, err
	}
	if _, err := conn.Write(append(hello, '\n')); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// srcKey is the byte pattern of a granted flow sourced at host.
func srcKey(host topology.NodeID) []byte {
	return []byte(`"src":` + strconv.Itoa(int(host)) + `,`)
}

// inspect drains conn like any sink but looks at what arrives.
func inspect(conn net.Conn, host topology.NodeID) sinkStats {
	var st sinkStats
	key := srcKey(host)
	rd := frameReader{conn: conn}
	for {
		frame, err := rd.next()
		if err != nil {
			return st
		}
		st.note(frame, key)
	}
}

// frameReader splits a conn's byte stream into newline-delimited frames and
// keeps the time spent blocked in Read apart from the time spent scanning.
type frameReader struct {
	conn    net.Conn
	buf     []byte
	r, w    int
	blocked time.Duration
}

// next returns the next frame without its newline; the slice is valid until
// the following call.
func (fr *frameReader) next() ([]byte, error) {
	for {
		if i := bytes.IndexByte(fr.buf[fr.r:fr.w], '\n'); i >= 0 {
			frame := fr.buf[fr.r : fr.r+i]
			fr.r += i + 1
			return frame, nil
		}
		if fr.r > 0 {
			fr.w = copy(fr.buf, fr.buf[fr.r:fr.w])
			fr.r = 0
		}
		if fr.w == len(fr.buf) {
			fr.buf = append(fr.buf, make([]byte, max(64<<10, len(fr.buf)))...)
		}
		t0 := time.Now()
		n, err := fr.conn.Read(fr.buf[fr.w:])
		fr.blocked += time.Since(t0)
		fr.w += n
		if err != nil {
			return nil, err
		}
	}
}

// driver is the one load source: one goroutine, one connection, one probe
// outstanding. It speaks the wire protocol with netctl's exported envelope
// types and recognises its decision by frame prefix, so that re-broadcast
// grants of other tasks cost it a scan, not a JSON decode.
type driver struct {
	w      *ctlWorkload
	conn   net.Conn
	rd     frameReader
	rng    *rand.Rand
	hosts  []topology.NodeID
	verify bool // traced pass: decode and check every decision grant

	next     int        // index of the next op
	live     [][]uint64 // flows accepted at op i, at i % lifetime
	accepted map[int64]bool
	accepts  int
	rejects  int
	// lastAccepted is the latest op's decision.
	lastAccepted bool

	wbuf, grantPfx, rejectPfx []byte
	srcKey                    []byte
	seen                      sinkStats // traced pass only
}

func newDriver(w *ctlWorkload, conn net.Conn, hosts []topology.NodeID, seed int64, verify bool) *driver {
	return &driver{
		w: w, conn: conn, rd: frameReader{conn: conn},
		rng: rand.New(rand.NewSource(seed)), hosts: hosts, verify: verify,
		live:     make([][]uint64, w.lifetime),
		accepted: make(map[int64]bool),
		srcKey:   srcKey(hosts[0]),
	}
}

// probe draws op i's task from the workload's distributions.
func (d *driver) probe(i int) netctl.ProbeMsg {
	w := d.w
	p := netctl.ProbeMsg{
		Task:     int64(i + 1),
		Deadline: w.deadlineLo + simtime.Time(d.rng.Int63n(int64(w.deadlineHi-w.deadlineLo)+1)) + w.advance*simtime.Time(i),
	}
	n := w.flowsLo + d.rng.Intn(w.flowsHi-w.flowsLo+1)
	p.Flows = make([]netctl.FlowInfo, n)
	for j := range p.Flows {
		src := d.rng.Intn(len(d.hosts))
		dst := d.rng.Intn(len(d.hosts) - 1)
		if dst >= src {
			dst++
		}
		p.Flows[j] = netctl.FlowInfo{
			ID:   uint64(p.Task)<<8 | uint64(j),
			Src:  d.hosts[src],
			Dst:  d.hosts[dst],
			Size: w.sizeLo + d.rng.Int63n(w.sizeHi-w.sizeLo+1),
		}
	}
	return p
}

func appendFrame(buf []byte, env netctl.Envelope) ([]byte, error) {
	b, err := json.Marshal(env)
	if err != nil {
		return buf, err
	}
	return append(append(buf, b...), '\n'), nil
}

// opResult is one probe-to-decision exchange as the driver saw it.
type opResult struct {
	start, sent, end time.Time
	accepted         bool
}

// op TERMs the task accepted lifetime ops ago, probes a new one and waits
// for its decision. Latency runs from just before the write to the moment
// the decision frame is recognised.
func (d *driver) op() (opResult, error) {
	var res opResult
	i := d.next
	d.next++
	slot := i % d.w.lifetime
	var err error
	d.wbuf = d.wbuf[:0]
	for _, fid := range d.live[slot] {
		if d.wbuf, err = appendFrame(d.wbuf, netctl.Envelope{Type: netctl.TypeTerm,
			Term: &netctl.TermMsg{Flow: fid}}); err != nil {
			return res, err
		}
	}
	d.live[slot] = d.live[slot][:0]
	p := d.probe(i)
	if d.wbuf, err = appendFrame(d.wbuf, netctl.Envelope{Type: netctl.TypeProbe, Probe: &p}); err != nil {
		return res, err
	}
	d.grantPfx = strconv.AppendInt(append(d.grantPfx[:0], `{"type":"grant","grant":{"task":`...), p.Task, 10)
	d.grantPfx = append(d.grantPfx, ',')
	d.rejectPfx = strconv.AppendInt(append(d.rejectPfx[:0], `{"type":"reject","reject":{"task":`...), p.Task, 10)
	d.rejectPfx = append(d.rejectPfx, ',')
	d.conn.SetReadDeadline(time.Now().Add(opTimeout))

	res.start = time.Now()
	if _, err := d.conn.Write(d.wbuf); err != nil {
		return res, err
	}
	res.sent = time.Now()
	for {
		frame, err := d.rd.next()
		if err != nil {
			return res, fmt.Errorf("task %d: no decision: %w", p.Task, err)
		}
		if bytes.HasPrefix(frame, d.grantPfx) {
			res.end = time.Now()
			res.accepted = true
			d.note(frame)
			if d.verify {
				if err := verifyGrant(frame, p); err != nil {
					return res, err
				}
			}
			break
		}
		if bytes.HasPrefix(frame, d.rejectPfx) {
			res.end = time.Now()
			d.note(frame)
			break
		}
		if err := d.other(frame); err != nil {
			return res, err
		}
	}
	d.lastAccepted = res.accepted
	if res.accepted {
		d.accepts++
		d.accepted[p.Task] = true
		for _, f := range p.Flows {
			d.live[slot] = append(d.live[slot], f.ID)
		}
	} else {
		d.rejects++
	}
	return res, nil
}

var rejectAny = []byte(`{"type":"reject"`)

// other handles a frame that is not the current op's decision: a
// re-broadcast grant is skipped, a reject of an earlier task (a preemption
// victim) is struck from the driver's ledger.
func (d *driver) other(frame []byte) error {
	d.note(frame)
	if !bytes.HasPrefix(frame, rejectAny) {
		return nil
	}
	var env netctl.Envelope
	if err := json.Unmarshal(frame, &env); err != nil || env.Reject == nil {
		return fmt.Errorf("undecodable reject frame %q: %v", frame, err)
	}
	delete(d.accepted, env.Reject.Task)
	return nil
}

// note counts a received frame for the useful-frame ratio (traced pass).
func (d *driver) note(frame []byte) {
	if d.verify {
		d.seen.note(frame, d.srcKey)
	}
}

// settle returns once the controller is done with the op just decided. A
// reject is broadcast ahead of the re-sent grants of every accepted task, so
// after one the driver reads on to the last of them (the highest accepted
// task; blocking reads keep its socket from filling and stalling the
// controller). An accept's own grant is already the last frame it is sent.
// What remains then is short — the same frame going out to the other agents
// and the stage sketches being fed — and is waited for by yielding.
func (d *driver) settle(rejected bool, done func() bool) error {
	if rejected && len(d.accepted) > 0 {
		var last int64
		for t := range d.accepted {
			last = max(last, t)
		}
		pfx := strconv.AppendInt([]byte(`{"type":"grant","grant":{"task":`), last, 10)
		pfx = append(pfx, ',')
		d.conn.SetReadDeadline(time.Now().Add(opTimeout))
		for {
			frame, err := d.rd.next()
			if err != nil {
				return err
			}
			if err := d.other(frame); err != nil {
				return err
			}
			if bytes.HasPrefix(frame, pfx) {
				break
			}
		}
	}
	for limit := time.Now().Add(opTimeout); !done(); runtime.Gosched() {
		if time.Now().After(limit) {
			return errors.New("controller did not finish the decision")
		}
	}
	return nil
}

// verifyGrant decodes a decision grant and checks it against the probe it
// answers: every flow scheduled on a path, inside [0, deadline], for long
// enough to move its bytes at the 1 Gb/s every link of the topology has.
func verifyGrant(frame []byte, p netctl.ProbeMsg) error {
	var env netctl.Envelope
	if err := json.Unmarshal(frame, &env); err != nil || env.Grant == nil {
		return fmt.Errorf("task %d: undecodable grant: %v", p.Task, err)
	}
	if len(env.Grant.Flows) != len(p.Flows) {
		return fmt.Errorf("task %d: grant has %d flows, probe had %d", p.Task, len(env.Grant.Flows), len(p.Flows))
	}
	size := make(map[uint64]int64, len(p.Flows))
	for _, f := range p.Flows {
		size[f.ID] = f.Size
	}
	bytesPerUs := topology.Gbps(1) / 1e6
	for _, fg := range env.Grant.Flows {
		want, ok := size[fg.ID]
		if !ok || len(fg.Path) == 0 || len(fg.Slices) == 0 {
			return fmt.Errorf("task %d: flow %d granted without a probe, path or slice", p.Task, fg.ID)
		}
		var busy simtime.Time
		prev := simtime.Time(0)
		for _, s := range fg.Slices {
			if s.Start < prev || s.End <= s.Start {
				return fmt.Errorf("task %d: flow %d has disordered slices", p.Task, fg.ID)
			}
			busy += s.End - s.Start
			prev = s.End
		}
		if prev > p.Deadline {
			return fmt.Errorf("task %d: flow %d ends at %d, after its deadline %d", p.Task, fg.ID, prev, p.Deadline)
		}
		// The planner rounds a transfer up to whole microseconds.
		if float64(busy+1)*bytesPerUs < float64(want) {
			return fmt.Errorf("task %d: flow %d granted %d us for %d bytes", p.Task, fg.ID, busy, want)
		}
	}
	return nil
}

// timed is one round of the timed run: a full set-up, one GC, then ops for
// the measured duration. Tracing is off.
func (w *ctlWorkload) timed(seed int64, measure time.Duration, outDir string) (roundResult, error) {
	return w.round(seed, outDir, func(_ int, elapsed time.Duration) bool { return elapsed < measure })
}

// round sets up and runs untraced ops for as long as more says so.
func (w *ctlWorkload) round(seed int64, outDir string, more func(ops int, elapsed time.Duration) bool) (roundResult, error) {
	var rr roundResult
	t0 := time.Now()
	fx, err := newFixture(w, seed, nil, outDir)
	if err != nil {
		return rr, err
	}
	defer fx.close()
	rr.setup = time.Since(t0)
	runtime.GC()

	d := fx.drv
	a0, r0 := d.accepts, d.rejects
	blocked0 := d.rd.blocked
	start := time.Now()
	for more(rr.attempted, time.Since(start)) {
		res, err := d.op()
		rr.attempted++
		if err != nil {
			return rr, err
		}
		rr.lat = append(rr.lat, res.end.Sub(res.start))
	}
	rr.elapsed = time.Since(start)
	rr.harness = rr.elapsed - (d.rd.blocked - blocked0)
	rr.accepts, rr.rejects = d.accepts-a0, d.rejects-r0
	if rr.warnings, err = fx.check(); err != nil {
		return rr, err
	}
	return rr, fx.close()
}

// numStages sizes arrays indexed by netctl.Stage.
const numStages = int(netctl.StageTotal) + 1

func stageSums(ctl *netctl.Controller) (s [numStages]time.Duration) {
	for i := range s {
		s[i] = ctl.StageSketch(netctl.Stage(i)).TotalSum()
	}
	return s
}

// traced runs the warm-up and a fixed op count twice from the same seed —
// tracing off, then on — and turns the second pass into per-layer numbers
// and a span file. In a closed loop the stage sketches' sums move by exactly
// one op's stage times between two reads, once the controller has finished
// the op.
func (w *ctlWorkload) traced(seed int64, outDir string) (tracedResult, error) {
	var out tracedResult
	n := w.tracedOps
	ref, err := w.round(seed, outDir, func(ops int, _ time.Duration) bool { return ops < n })
	if err != nil {
		return out, fmt.Errorf("untraced pass: %w", err)
	}

	tr := newTracer()
	fx, err := newFixture(w, seed, tr, outDir)
	if err != nil {
		return out, err
	}
	defer fx.close()
	runtime.GC()
	d, ctl := fx.drv, fx.ctl
	decided := ctl.StageSketch(netctl.StageTotal)
	// Let the last warm-up op's broadcast finish before any counter is read.
	if err := d.settle(!d.lastAccepted, func() bool { return decided.TotalCount() >= uint64(w.warmup) }); err != nil {
		return out, err
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	scope0 := ctl.Recorder().ReplanScopeStats()
	dl0 := ctl.Recorder().DeclogStats()
	a0, r0 := d.accepts, d.rejects
	tr.framesOut.Store(0)
	tr.bytesOut.Store(0)
	tr.writeNs.Store(0)
	tr.pathsCalls.Store(0)
	tr.pathsNs.Store(0)

	var (
		stage      [numStages]time.Duration
		lat        = make([]time.Duration, 0, n)
		framesByOp = make([]float64, 0, n)
		overlapOps int
		frames     int64
		cycles     time.Duration // op start to the controller being done with it
	)
	for i := 0; i < n; i++ {
		tr.writeFirst.Store(0)
		tr.pathsFirst.Store(0)
		w0, p0 := tr.writeNs.Load(), tr.pathsNs.Load()
		pc0 := tr.pathsCalls.Load()
		before := stageSums(ctl)
		opStart := time.Now()
		res, err := d.op()
		if err != nil {
			return out, err
		}
		// The sketches are fed after the decision frame is on the wire.
		want := uint64(w.warmup + i + 1)
		if err := d.settle(!res.accepted, func() bool { return decided.TotalCount() >= want }); err != nil {
			return out, err
		}
		cycles += time.Since(opStart)
		after := stageSums(ctl)
		if ctl.Snapshot().OverlapViolations > 0 {
			overlapOps++
		}
		f := tr.framesOut.Load()
		framesByOp = append(framesByOp, float64(f-frames))
		frames = f
		lat = append(lat, res.end.Sub(res.start))

		at := func(t time.Time) int64 { return int64(t.Sub(tr.epoch)) + 1 }
		root := tr.add(i, 0, "op", at(res.start), at(res.end))
		tr.add(i, root, "driver.send", at(res.start), at(res.sent))
		tr.add(i, root, "driver.wait", at(res.sent), at(res.end))
		var ids [numStages]int
		cursor := at(res.sent)
		for i := range stage {
			stage[i] += after[i] - before[i]
		}
		ids[netctl.StageTotal] = tr.addDerived(i, root, "netctl.total", cursor,
			int64(after[netctl.StageTotal]-before[netctl.StageTotal]))
		for st := netctl.StageDecode; st < netctl.StageTotal; st++ {
			dur := int64(after[st] - before[st])
			ids[st] = tr.addDerived(i, ids[netctl.StageTotal], "netctl."+st.String(), cursor, dur)
			cursor += dur
		}
		if first := tr.writeFirst.Load(); first != 0 {
			tr.addFolded(i, ids[netctl.StageBroadcast], "wire.write", first, tr.writeLast.Load(),
				tr.writeNs.Load()-w0, int64(framesByOp[i]))
		}
		if first := tr.pathsFirst.Load(); first != 0 {
			tr.addFolded(i, ids[netctl.StagePlan], "topology.paths", first, tr.pathsLast.Load(),
				tr.pathsNs.Load()-p0, tr.pathsCalls.Load()-pc0)
		}
	}
	runtime.ReadMemStats(&ms1)
	heapEnd := liveHeapMB()
	scope1 := ctl.Recorder().ReplanScopeStats()
	dl1 := ctl.Recorder().DeclogStats()

	warnings, err := fx.check()
	if err != nil {
		return out, err
	}
	if err := fx.close(); err != nil {
		return out, err
	}

	accepts, rejects := d.accepts-a0, d.rejects-r0
	if accepts != ref.accepts || rejects != ref.rejects {
		return out, fmt.Errorf("decisions do not repeat: traced pass %d accepts / %d rejects, untraced pass %d / %d",
			accepts, rejects, ref.accepts, ref.rejects)
	}
	if out.spanFile, err = tr.write(outDir, w.name); err != nil {
		return out, err
	}

	perOpUs := func(d time.Duration) float64 { return float64(d) / 1e3 / float64(n) }
	m := map[string]float64{}
	for st := netctl.StageDecode; st <= netctl.StageTotal; st++ {
		m["netctl."+st.String()+"_us"] = perOpUs(stage[st])
	}
	broadcast, total := stage[netctl.StageBroadcast], stage[netctl.StageTotal]
	m["netctl.other_us"] = perOpUs(total - stage[netctl.StageLockWait] - stage[netctl.StagePlan] -
		stage[netctl.StageDeclogSync] - broadcast)
	m["driver.rtt_overhead_us"] = perOpUs(cycles - total)
	m["driver.harness_us"] = perOpUs(ref.harness)
	m["driver.op_p99_ms"] = quantile(millis(lat), 0.99)
	m["trace.overhead_pct"] = (float64(cycles)/float64(ref.elapsed) - 1) * 100
	m["wire.frames_out"] = float64(tr.framesOut.Load())
	m["wire.bytes_out"] = float64(tr.bytesOut.Load())
	m["wire.write_us"] = perOpUs(time.Duration(tr.writeNs.Load()))
	m["wire.encode_us"] = perOpUs(broadcast - time.Duration(tr.writeNs.Load()))
	m["wire.ramp_slope_frames_per_op"] = slope(framesByOp)
	seen := d.seen
	for _, st := range fx.seen {
		seen.frames += st.frames
		seen.useful += st.useful
	}
	if seen.frames > 0 {
		m["wire.useful_frame_ratio"] = float64(seen.useful) / float64(seen.frames)
	}
	if passes := scope1.Count - scope0.Count; passes > 0 {
		m["core.delta_reuse_ratio"] = 1 - float64(scope1.FullFallbacks-scope0.FullFallbacks)/float64(passes)
		m["core.delta_dirty_frac"] = (scope1.Sum - scope0.Sum) / float64(passes)
	}
	m["obs.declog_records"] = float64(dl1.Records - dl0.Records)
	m["obs.declog_bytes"] = float64(dl1.Bytes - dl0.Bytes)
	m["topology.paths_calls"] = float64(tr.pathsCalls.Load())
	m["topology.paths_us"] = perOpUs(time.Duration(tr.pathsNs.Load()))
	m["netctl.accepts"] = float64(accepts)
	m["netctl.rejects"] = float64(rejects)
	m["netctl.overlap_violation_ops"] = float64(overlapOps)
	goMetrics(m, &ms0, &ms1, heapEnd, n)

	out.values = m
	out.attempted = 2 * n
	out.warnings = warnings
	return out, nil
}

// liveHeapMB is the heap still reachable after a collection: with the
// fixture alive, the state the program under test is holding on to.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// goMetrics adds the runtime's view of the ops that ms0 and ms1 bracket.
func goMetrics(m map[string]float64, ms0, ms1 *runtime.MemStats, heapEndMB float64, ops int) {
	m["go.allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(ops)
	m["go.alloc_kb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(ops)
	m["go.gc_pause_us"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e3 / float64(ops)
	m["go.heap_end_mb"] = heapEndMB
}
