package netctl

import (
	"cmp"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"taps/internal/core"
	"taps/internal/obs"
	"taps/internal/obs/declog"
	"taps/internal/obs/span"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// ControllerConfig tunes the networked controller.
type ControllerConfig struct {
	// Speedup is virtual µs per real µs (default 1: real time).
	Speedup float64
	// MaxPaths caps the planner's candidate path set (default 16).
	MaxPaths int
	// Incremental is accepted and ignored: every planning pass is a full
	// pass. The field remains for the benchmark harness, which sets it.
	Incremental bool
	// Logf receives controller diagnostics (default: discards).
	Logf func(format string, args ...any)
}

func (c ControllerConfig) withDefaults() ControllerConfig {
	if c.Speedup <= 0 {
		c.Speedup = 1
	}
	if c.MaxPaths == 0 {
		c.MaxPaths = 16
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// ctlPlane is the kernel's view of the controller's data plane. The
// controller never hears how far a sender has got, only when it is done,
// so progress is derived from the kernel's own grants: a sender is busy
// exactly during its slices.
type ctlPlane struct{ c *Controller }

// Discard closes the books on a task the reject rule discarded: terminal
// records for the task and its flows, and its entry in the grant ledger,
// if it has one (a rejected newcomer has none). Runs inside a decision,
// so c.mu is held.
func (p ctlPlane) Discard(now simtime.Time, task, by int64) {
	c := p.c
	outcome, reason, note := span.OutcomeRejected, "reject rule", "task rejected"
	if by != span.NoTask {
		outcome, reason, note = span.OutcomePreempted, fmt.Sprintf("preempted by task %d", by), "task preempted"
	}
	c.sink.Emit(&declog.Record{Kind: declog.KindTaskEnd, Time: now, Task: task, Outcome: outcome, Reason: reason})
	for _, f := range c.kernel.Flows(task) {
		c.sink.Emit(&declog.Record{Kind: declog.KindFlowEnd, Time: now, Flow: int64(f.Key), Reason: note})
	}
	if i, ok := c.ledgerIndex(task); ok {
		c.ledger = slices.Delete(c.ledger, i, i+1)
	}
}

// grantEntry is one accepted task in the controller's grant ledger: the
// task's flows in the kernel and, once every one of them is Done, the
// task's grant frame. A grant lists the flows not yet Done, and a flow
// never stops being Done, so a settled task's frame — its ID and no
// flows — can no longer change: it is encoded once and re-sent as is.
type grantEntry struct {
	task    int64
	flows   []*core.Flow
	settled []byte
}

// Controller is the networked TAPS controller. Create with NewController,
// start with Serve (or ServeListener), stop with Close.
type Controller struct {
	cfg   ControllerConfig
	graph *topology.Graph
	epoch time.Time
	obs   *obs.Recorder
	// sink is where the controller and its kernel, which shares it, report
	// every decision and lifecycle record. Both halves are always on: the
	// log is in memory until EnableDecisionLog puts it in a file, and it
	// is the only record — /trace and /why replay it.
	sink declog.Sink

	load *loadStats

	mu     sync.Mutex
	agents map[*codec]HelloMsg
	// conns is the recipients of the broadcast in progress, collected from
	// agents before its first frame; an agent whose write fails leaves a
	// nil slot. Reused from one broadcast to the next.
	conns []*codec
	// kernel decides: it owns the flow table and the plan.
	kernel *core.Kernel
	// ledger is what the agents were told to send: every task accepted and
	// not since discarded, sorted by task ID, in the order its grants are
	// broadcast. decided holds every task a probe was decided for; those
	// decided and not in the ledger were rejected or preempted.
	ledger  []grantEntry
	decided map[int64]bool
	// stageAcc points at the in-progress probe's stage accumulator while
	// onProbe holds mu; helpers called from the critical section charge
	// their elapsed time to it via stageAdd.
	stageAcc *[stageCount]time.Duration
	// frame is the buffer broadcastGrantsLocked encodes each grant into,
	// reused from one grant and one decision to the next.
	frame []byte
	// closing is set under mu before Close tears anything down, so
	// ServeListener can refuse late conns instead of racing wg.Add against
	// wg.Wait (which would let a handle goroutine append to a closed log).
	closing bool

	listener  net.Listener
	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// NewController builds a controller for the topology.
func NewController(g *topology.Graph, r topology.Routing, cfg ControllerConfig) *Controller {
	cfg = cfg.withDefaults()
	rec := obs.NewRecorder()
	c := &Controller{
		cfg:     cfg,
		graph:   g,
		epoch:   time.Now(), //taps:allow wallclock real controller: the virtual clock is anchored to a wall-clock epoch
		obs:     rec,
		sink:    declog.Sink{Log: &declog.Writer{}, Obs: rec},
		load:    newLoadStats(),
		agents:  make(map[*codec]HelloMsg),
		decided: make(map[int64]bool),
		closed:  make(chan struct{}),
	}
	c.kernel = core.NewKernel(g, r, core.Config{MaxPaths: cfg.MaxPaths}, ctlPlane{c})
	c.kernel.Sink = &c.sink
	c.sink.Log.Append(c.metaRecord())
	return c
}

// metaRecord is the log's identity record: the virtual clock's epoch and
// speed, and the link names a replay labels links with.
func (c *Controller) metaRecord() *declog.Record {
	return &declog.Record{Kind: declog.KindMeta, Meta: &declog.Meta{
		Source:        "netctl",
		EpochUnixNano: c.epoch.UnixNano(),
		Speedup:       c.cfg.Speedup,
		LinkNames:     c.graph.LinkNames(),
	}}
}

// Recorder returns the controller's always-on observability recorder:
// decision counts, planner and fsync latency, and decision-log health —
// the data behind /metrics.
func (c *Controller) Recorder() *obs.Recorder { return c.obs }

// DecisionLog returns the controller's decision log: the file
// EnableDecisionLog attached, else the log in memory.
func (c *Controller) DecisionLog() *declog.Writer {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sink.Log
}

// EnableDecisionLog makes path the controller's durable flight recorder,
// in place of the log in memory. A file that holds records is recovered
// from without re-contacting agents: every logged input is decided again at
// its logged time, and must emit the log's records byte for byte, or the
// log is refused and the controller must not serve. Records past the end
// finish a decision a crash cut short; they are appended and synced. The
// virtual clock resumes the writing run's epoch and speedup. A torn tail
// is truncated away (and counted on /metrics). Call before Serve.
func (c *Controller) EnableDecisionLog(path string) error {
	w, recs, err := declog.OpenAppend(path, declog.Options{Health: c.obs})
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sink.Log = w
	if len(recs) == 0 {
		w.Append(c.metaRecord())
		return w.Sync() //taps:allow lockorder one-time setup before Serve; the meta record must be durable before any decision
	}
	inputs, err := c.redoLocked(w, recs)
	if err != nil {
		w.Close()
		return fmt.Errorf("netctl: %s: %w", path, err)
	}
	// The health counters have seen only the appends past the log's end.
	c.cfg.Logf("netctl: recovered %d records from %s: %d inputs re-decided, %d records appended",
		len(recs), path, inputs, c.obs.DeclogStats().Records)
	return w.Sync() //taps:allow lockorder one-time setup before Serve; a cut decision must be durable before any agent hears of it
}

// redoLocked decides the inputs of recs again, in order, through w in redo
// mode, and returns how many: the first record not yet reproduced opens the
// next input. The sink's recorder counted them the first time, so is off.
func (c *Controller) redoLocked(w *declog.Writer, recs []declog.Record) (inputs int, err error) {
	if err := w.Redo(); err != nil {
		return 0, err
	}
	c.sink.Obs = nil
	defer func() { c.sink.Obs = c.obs }()
	for i := 0; i < len(recs); {
		r := &recs[i]
		if err := c.redecide(r); err != nil {
			return inputs, fmt.Errorf("record %d: %w", i, err)
		}
		if r.Kind != declog.KindMeta {
			inputs++
		}
		next, err := w.Redone()
		if err == nil && next == i {
			err = fmt.Errorf("record %d: deciding its %s again wrote nothing", i, r.Kind)
		}
		if err != nil {
			return inputs, err
		}
		i = next
	}
	return inputs, nil
}

// redecide runs the input a logged record opens — a probe for a Task
// record, a re-issue for a Replan of its own, a TERM for a FlowEnd — at the
// record's time. A Meta record opens none: the clock resumes the epoch and
// speed it names, and it is carried over as it is.
func (c *Controller) redecide(r *declog.Record) error {
	switch r.Kind {
	case declog.KindMeta:
		if m := r.Meta; m.Speedup > 0 {
			c.epoch, c.cfg.Speedup = time.Unix(0, m.EpochUnixNano), m.Speedup
		}
		c.sink.Log.Append(r)
	case declog.KindTask:
		p := ProbeMsg{Task: r.Task, Deadline: r.Deadline, Flows: make([]FlowInfo, len(r.Flows))}
		for i, fi := range r.Flows {
			p.Flows[i] = FlowInfo{ID: uint64(fi.ID), Src: topology.NodeID(fi.Src), Dst: topology.NodeID(fi.Dst), Size: fi.Size}
		}
		if fault := c.probeFault(&p); fault != "" {
			return errors.New(fault)
		}
		c.probe(r.Time, p)
	case declog.KindReplan:
		c.reissue(r.Time, r.Replan.Trigger)
	case declog.KindFlowEnd:
		c.term(r.Time, uint64(r.Flow))
	case declog.KindAdmit, declog.KindReject, declog.KindPreempt, declog.KindAttr,
		declog.KindTaskEnd, declog.KindSegments, declog.KindLinkDown, declog.KindCommit:
		return fmt.Errorf("a %s record opens no input", r.Kind)
	}
	return nil
}

// now is the current virtual time.
func (c *Controller) now() simtime.Time {
	return simtime.Time(float64(time.Since(c.epoch).Microseconds()) * c.cfg.Speedup) //taps:allow wallclock real controller: virtual time is scaled wall time by design
}

// Serve listens on addr ("127.0.0.1:0" for tests) and handles agents until
// Close. It returns the bound address immediately via the channelless
// Addr method; use ServeListener to supply your own listener.
func (c *Controller) Serve(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("netctl: listen: %w", err)
	}
	return c.ServeListener(l)
}

// ServeListener accepts agents on l until Close. Called after Close, it
// only closes l.
func (c *Controller) ServeListener(l net.Listener) error {
	c.mu.Lock()
	c.listener = l
	closing := c.closing
	c.mu.Unlock()
	if closing {
		// Close ran before l was registered, so it cannot have closed it.
		return l.Close()
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-c.closed:
				return nil
			default:
				return fmt.Errorf("netctl: accept: %w", err)
			}
		}
		// The closing check and wg.Add share one critical section with
		// Close's closing=true write: either this conn's handle goroutine is
		// registered before Close reaches wg.Wait (and the declog outlives
		// its appends), or the conn is refused. Without this, a conn
		// accepted just before Close could append to a closed log.
		c.mu.Lock()
		if c.closing {
			c.mu.Unlock()
			conn.Close()
			continue
		}
		c.wg.Add(1)
		c.mu.Unlock()
		cd := newCodec(conn)
		cd.onDecode = c.observeDecode
		go func() {
			defer c.wg.Done()
			c.handle(cd)
		}()
	}
}

// Addr returns the bound listener address (empty before Serve).
func (c *Controller) Addr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.listener == nil {
		return ""
	}
	return c.listener.Addr().String()
}

// Close stops the listener, drops all agents, and flushes the decision
// log so every appended record is durable. Idempotent: later calls return
// the first call's error.
func (c *Controller) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.mu.Lock()
		c.closing = true
		l := c.listener
		w := c.sink.Log
		conns := make([]*codec, 0, len(c.agents))
		for cd := range c.agents {
			conns = append(conns, cd)
		}
		c.mu.Unlock()
		// Teardown happens outside the lock (lockorder): closing a socket
		// can block, and the handle() goroutines need c.mu to unregister —
		// closing under the lock could deadlock shutdown against them.
		for _, cd := range conns {
			cd.close()
		}
		var err error
		if l != nil {
			err = l.Close()
		}
		c.wg.Wait()
		if cerr := w.Close(); err == nil {
			err = cerr
		}
		c.closeErr = err
	})
	return c.closeErr
}

// handle runs one agent connection to completion.
func (c *Controller) handle(cd *codec) {
	defer cd.close()
	env, err := cd.recv()
	if err != nil || env.Type != TypeHello || env.Hello == nil {
		c.cfg.Logf("netctl: bad hello: %v", err)
		return
	}
	hello := *env.Hello
	// Registering and welcoming are one critical section: an agent that has
	// read its welcome is in the broadcast set of every later decision, and
	// no grant can reach it ahead of the welcome.
	c.mu.Lock()
	c.agents[cd] = hello
	if len(c.agents) > c.load.peakAgents {
		c.load.peakAgents = len(c.agents)
	}
	err = cd.send(Envelope{Type: TypeWelcome, Welcome: &WelcomeMsg{ //taps:allow lockorder the welcome must precede any broadcast to this agent, and broadcasts serialize under mu
		EpochUnixNano: c.epoch.UnixNano(),
		Speedup:       c.cfg.Speedup,
	}})
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.agents, cd)
		c.mu.Unlock()
	}()
	if err != nil {
		return
	}
	c.cfg.Logf("netctl: agent %s (host %d) connected", hello.Agent, hello.Host)
	for {
		env, err := cd.recv()
		if err != nil {
			return
		}
		switch env.Type {
		case TypeProbe:
			if fault := c.probeFault(env.Probe); fault == "" {
				c.onProbe(*env.Probe)
			} else {
				c.mu.Lock()
				c.load.probesDropped++
				c.mu.Unlock()
				c.cfg.Logf("netctl: dropped probe from %s: %s", hello.Agent, fault)
			}
		case TypeTerm:
			if env.Term != nil {
				c.onTerm(*env.Term)
			}
		default:
			c.cfg.Logf("netctl: unexpected %s from %s", env.Type, hello.Agent)
		}
	}
}

// probeFault says why a probe cannot be decided, or "" when it can: a
// frame without payload, or a flow whose endpoints are not nodes of the
// graph. The graph is immutable, so the check runs outside mu.
func (c *Controller) probeFault(p *ProbeMsg) string {
	if p == nil {
		return "frame without payload"
	}
	n := topology.NodeID(c.graph.NumNodes())
	for _, fi := range p.Flows {
		if fi.Src < 0 || fi.Src >= n || fi.Dst < 0 || fi.Dst >= n {
			return fmt.Sprintf("task %d flow %d: %d->%d names a node outside the %d-node graph", p.Task, fi.ID, fi.Src, fi.Dst, n)
		}
	}
	return ""
}

// observeDecode feeds one frame's unmarshal time to the decode-stage
// sketch (codec hook; called outside mu, per frame rather than per probe).
func (c *Controller) observeDecode(d time.Duration, unixNano int64) {
	c.load.stages[StageDecode].Observe(unixNano, d)
}

// onProbe runs Alg. 1 + the reject rule and broadcasts the outcome.
func (c *Controller) onProbe(p ProbeMsg) {
	sw := obs.StartStopwatch()
	c.load.inFlight.Add(1)
	c.mu.Lock()
	var acc [stageCount]time.Duration
	acc[StageLockWait] = sw.Elapsed()
	c.stageAcc = &acc
	c.load.probesTotal++
	defer func() {
		c.stageAcc = nil
		c.mu.Unlock()
		// Sketches are fed after mu is released: a slow scrape contending
		// on the sketch lock must never extend the decision lock.
		total, end := sw.Lap()
		acc[StageTotal] = total
		acc[StageOther] = total - acc[StageLockWait] - acc[StagePlan] - acc[StageDeclogSync] - acc[StageBroadcast]
		c.observeStages(end, &acc)
		c.load.inFlight.Add(-1)
	}()
	if c.decided[p.Task] {
		// Duplicate probe (agent retry): replan and re-broadcast.
		if _, ok := c.ledgerIndex(p.Task); ok {
			c.reissue(c.now(), p.Task)
			c.declogSyncLocked()
			c.broadcastGrantsLocked()
		} else {
			c.broadcastRejectLocked(p.Task, "already rejected")
		}
		return
	}
	decision, victim := c.probe(c.now(), p)
	c.declogSyncLocked()
	switch decision {
	case core.RejectNew:
		c.broadcastRejectLocked(p.Task, "reject rule")
		c.cfg.Logf("netctl: task %d rejected", p.Task)
	case core.Preempt:
		c.broadcastRejectLocked(victim, "preempted")
		c.cfg.Logf("netctl: task %d accepted, task %d preempted", p.Task, victim)
	case core.Accept:
		c.cfg.Logf("netctl: task %d accepted", p.Task)
	}
	c.broadcastGrantsLocked()
}

// probe decides a task's first probe at now (Alg. 1, the reject rule) and
// records it: the Task record, the kernel's records, the ledger entry of an
// admitted task and the ends of its flows finished on arrival. It returns
// the rule's decision and, for Preempt, the victim.
func (c *Controller) probe(now simtime.Time, p ProbeMsg) (core.Decision, int64) {
	c.decided[p.Task] = true
	specs := make([]core.FlowSpec, len(p.Flows))
	infos := make([]declog.FlowInfo, len(p.Flows))
	for i, fi := range p.Flows {
		specs[i] = core.FlowSpec{Key: fi.ID, Src: fi.Src, Dst: fi.Dst, Size: fi.Size}
		infos[i] = declog.FlowInfo{ID: int64(fi.ID), Src: int32(fi.Src), Dst: int32(fi.Dst), Size: fi.Size,
			Label: c.graph.Node(fi.Src).Name + "->" + c.graph.Node(fi.Dst).Name}
	}
	c.sink.Emit(&declog.Record{Kind: declog.KindTask, Time: now, Task: p.Task, Deadline: p.Deadline, Flows: infos})
	var decision core.Decision
	var victim int64
	c.decideLocked(func() { decision, victim = c.kernel.TaskArrived(now, p.Task, p.Deadline, specs) })
	if decision != core.RejectNew {
		c.acceptLocked(p.Task)
		// Flows the kernel found finished on arrival (a local transfer,
		// nothing to send) end here: no agent will ever report them.
		ended := false
		for _, f := range c.kernel.Flows(p.Task) {
			if f.Done {
				c.flowEndedLocked(f, now)
				ended = true
			}
		}
		if ended {
			c.taskEndedLocked(p.Task, now)
		}
	}
	return decision, victim
}

// reissue re-plans everything in flight at now for an admitted task whose
// probe came again (an agent's retry), so that its grant is issued anew.
func (c *Controller) reissue(now simtime.Time, task int64) {
	c.decideLocked(func() { c.kernel.Replan(now, task) })
}

// decideLocked runs one kernel input, charging its time to the
// in-progress probe's plan stage.
func (c *Controller) decideLocked(input func()) {
	sw := obs.StartStopwatch()
	input()
	c.stageAdd(StagePlan, sw.Elapsed())
}

// declogSyncLocked runs the write-ahead fsync of a decision, charging the
// wait to the in-progress probe's declog_sync stage. A log in memory has
// nothing to sync: the stage stays empty rather than recording no-op
// timings.
func (c *Controller) declogSyncLocked() {
	if c.sink.Log.Path() == "" {
		return
	}
	sw := obs.StartStopwatch()
	c.sink.Log.Sync() //taps:allow lockorder write-ahead contract: the decision must be durable before any agent hears it, so the fsync sits inside the critical section
	c.stageAdd(StageDeclogSync, sw.Elapsed())
}

// ledgerIndex is the position of task in the grant ledger, or where it
// would go, and whether it is there.
func (c *Controller) ledgerIndex(task int64) (int, bool) {
	return slices.BinarySearchFunc(c.ledger, task, func(e grantEntry, t int64) int { return cmp.Compare(e.task, t) })
}

// acceptLocked enters an accepted task in the grant ledger. Task IDs
// almost always arrive in increasing order, which makes it an append.
func (c *Controller) acceptLocked(task int64) {
	if i, ok := c.ledgerIndex(task); !ok {
		c.ledger = slices.Insert(c.ledger, i, grantEntry{task: task, flows: c.kernel.Flows(task)})
	}
}

// broadcastGrantsLocked sends the current schedule of every accepted task,
// in task order. A live task's grant frame is encoded straight from the
// kernel's flows into the controller's frame buffer; the first broadcast
// that finds all its flows Done keeps those bytes as the settled frame,
// which every later broadcast re-sends as they are. Each frame is written
// to every agent. All of it — encoding and writing — is the decision's
// broadcast stage.
func (c *Controller) broadcastGrantsLocked() {
	sw := obs.StartStopwatch()
	c.collectAgentsLocked()
	for i := range c.ledger {
		e := &c.ledger[i]
		frame := e.settled
		if frame == nil {
			c.frame = appendGrantFrame(c.frame[:0], e.task, e.flows)
			frame = c.frame
			if !slices.ContainsFunc(e.flows, func(f *core.Flow) bool { return !f.Done }) {
				e.settled = slices.Clone(frame)
			}
		}
		c.writeAllLocked(frame)
	}
	c.stageAdd(StageBroadcast, sw.Elapsed())
}

// broadcastRejectLocked tells every agent that task is discarded.
func (c *Controller) broadcastRejectLocked(task int64, reason string) {
	sw := obs.StartStopwatch()
	// A reject holds an integer and a string: it always encodes.
	frame, _ := encodeFrame(Envelope{Type: TypeReject, Reject: &RejectMsg{Task: task, Reason: reason}})
	c.collectAgentsLocked()
	c.writeAllLocked(frame)
	c.stageAdd(StageBroadcast, sw.Elapsed())
}

// collectAgentsLocked makes the registered agents the recipients of the
// broadcast about to start.
func (c *Controller) collectAgentsLocked() {
	c.conns = c.conns[:0]
	for cd := range c.agents {
		c.conns = append(c.conns, cd)
	}
}

// writeAllLocked writes one encoded frame to every recipient of the
// broadcast in progress. An agent whose write fails is dropped at once:
// its codec has closed the connection, on which a torn frame may already
// sit, so no later frame goes to it.
func (c *Controller) writeAllLocked(frame []byte) {
	for i, cd := range c.conns {
		if cd == nil {
			continue
		}
		if err := cd.write(frame); err != nil { //taps:allow lockorder grants must serialize under the decision lock so agents observe monotone schedules
			hello := c.agents[cd]
			delete(c.agents, cd)
			c.conns[i] = nil
			c.cfg.Logf("netctl: dropped agent %s (host %d): %v", hello.Agent, hello.Host, err)
		}
	}
}

// onTerm marks a flow finished and releases its future occupancy.
func (c *Controller) onTerm(t TermMsg) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.load.termsTotal++
	c.term(c.now(), t.Flow)
}

// term marks a flow finished at now and closes its span, and its task's
// once all its flows are done. Unknown and finished flows are ignored.
func (c *Controller) term(now simtime.Time, flow uint64) {
	f := c.kernel.Flow(flow)
	if f == nil || f.Done {
		return
	}
	c.kernel.FlowFinished(now, f.Key, 0)
	c.flowEndedLocked(f, now)
	c.taskEndedLocked(f.Task, now)
}

// flowEndedLocked closes a finished flow's span.
func (c *Controller) flowEndedLocked(f *core.Flow, now simtime.Time) {
	c.sink.Emit(&declog.Record{Kind: declog.KindFlowEnd, Time: now, Flow: int64(f.Key),
		Done: true, OnTime: now <= f.Deadline})
}

// taskEndedLocked closes the task's span as completed once every one of
// its flows is done. Callers end all the flows a decision finished first,
// so a task ends once however many of its flows finish together.
func (c *Controller) taskEndedLocked(task int64, now simtime.Time) {
	for _, f := range c.kernel.Flows(task) {
		if !f.Done {
			return
		}
	}
	c.sink.Emit(&declog.Record{Kind: declog.KindTaskEnd, Time: now, Task: task, Outcome: span.OutcomeCompleted})
}

// Snapshot is introspection for tests and operators.
type Snapshot struct {
	Agents        int
	AcceptedTasks []int64
	PendingFlows  int
	// LinkBusy maps link IDs to the planned busy time of undone flows.
	LinkBusy map[topology.LinkID]simtime.IntervalSet
	// OverlapViolations counts link-time collisions between planned
	// flows; a correct plan has zero.
	OverlapViolations int
}

// Snapshot returns the controller's current state.
func (c *Controller) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	var s Snapshot
	s.Agents = len(c.agents)
	for _, e := range c.ledger {
		s.AcceptedTasks = append(s.AcceptedTasks, e.task)
	}
	s.LinkBusy, s.PendingFlows, s.OverlapViolations = c.kernel.LinkBusy()
	return s
}
