// Package sdn emulates the §VI testbed: an SDN control plane (controller,
// sending hosts, switches with flow tables) exchanging the paper's protocol
// messages over a tick-driven virtual clock, plus a byte-accurate data
// plane on the partial fat-tree.
//
// The control-plane sequence is the one in Fig. 4:
//
//  1. a task arrives at its sending hosts;
//  2. the senders emit a probe message carrying the task information
//     (source, destination, size, deadline per flow) to the controller;
//  3. the controller runs the centralized algorithm (core.Kernel: Alg. 1–3
//     + the §IV-B reject rule) to accept or discard the task;
//  4. on accept it installs forwarding entries on the switches along each
//     chosen path (4A) and sends the pre-allocated time slices to the
//     senders (4B), both in effect when the reply lands, the instant the
//     slices were planned from (so grants alone tell how far a flow got);
//  5. on reject it tells the senders to discard the task.
//
// Every message takes ControlLatencyTicks to be delivered, switch flow
// tables have finite capacity, senders transmit only inside granted
// slices, and switches forward only flows present in their tables — so the
// whole control loop of the paper's implementation is exercised, not just
// the planning math.
//
// The comparison transport is Fair Sharing (ModeFairSharing): no admission
// control, every flow starts immediately on its ECMP path, per-tick
// max-min bandwidth sharing, flows stop at their deadlines.
package sdn

import (
	"fmt"
	"sort"

	"taps/internal/core"
	"taps/internal/obs/span"
	"taps/internal/sim"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// Mode selects the transport under test.
type Mode uint8

// Modes.
const (
	ModeTAPS Mode = iota
	ModeFairSharing
)

func (m Mode) String() string {
	if m == ModeTAPS {
		return "TAPS"
	}
	return "FairSharing"
}

// The testbed's virtual-time quantum, and the fewest ticks a sender waits
// for an admission decision before re-sending its probe.
const (
	tickDuration    = 100 * simtime.Microsecond
	probeRetryTicks = 20
)

// Config tunes the testbed.
type Config struct {
	// ControlLatencyTicks delays every control message (default 1).
	ControlLatencyTicks int
	// FlowTableCapacity bounds per-switch flow tables (default 1000,
	// the "first 1k entries" rule of §IV-C).
	FlowTableCapacity int
	// DropEveryN injects control-plane faults: on average one in N
	// control messages is lost in flight (0 disables), chosen by a
	// deterministic hash of the send counter so the loss pattern is
	// reproducible but aperiodic (a strict every-Nth rule can phase-lock
	// with the request/reply alternation and drop every reply forever).
	// Senders re-probe once a reply is overdue and controller replies are
	// idempotent, so the protocol must converge despite the loss.
	DropEveryN int
}

func (c Config) withDefaults() Config {
	if c.ControlLatencyTicks == 0 {
		c.ControlLatencyTicks = 1
	}
	if c.FlowTableCapacity == 0 {
		c.FlowTableCapacity = 1000
	}
	return c
}

// flowID identifies a flow within the testbed.
type flowID int32

// tbFlow is the testbed-side state of one flow.
type tbFlow struct {
	id       flowID
	task     int
	src, dst topology.NodeID
	size     int64
	arrival  simtime.Time
	deadline simtime.Time

	path      topology.Path
	slices    simtime.IntervalSet
	granted   bool
	discarded bool

	remaining float64
	sent      float64
	doneAt    simtime.Time
	done      bool
}

func (f *tbFlow) onTime() bool { return f.done && f.doneAt <= f.deadline }

// grant is a routed flow's part of a committed plan, on its way to the
// senders and switches until tick.
type grant struct {
	tick   int
	f      *tbFlow
	path   topology.Path
	slices simtime.IntervalSet
}

// message is a control-plane message in flight.
type message struct {
	deliverTick int
	kind        msgKind
	task        int
	flow        flowID
}

type msgKind uint8

const (
	msgProbe  msgKind = iota // senders -> controller: task info
	msgGrant                 // controller -> senders: slices + paths (per task)
	msgReject                // controller -> senders: discard task
	msgTerm                  // sender -> controller: flow finished
)

// switchState is one switch's flow table.
type switchState struct {
	id       topology.NodeID
	capacity int
	table    map[flowID]topology.LinkID // flow -> egress link
	rejected int                        // installs refused because the table was full
}

func (s *switchState) install(f flowID, egress topology.LinkID) bool {
	if _, ok := s.table[f]; ok {
		s.table[f] = egress
		return true
	}
	if len(s.table) >= s.capacity {
		s.rejected++
		return false
	}
	s.table[f] = egress
	return true
}

func (s *switchState) remove(f flowID) { delete(s.table, f) }

// TickStat is one tick of the Fig. 14 timeline.
type TickStat struct {
	Time           simtime.Time
	DeliveredBytes float64
	UsefulBytes    float64 // filled post-hoc: bytes of flows that ended on time
	ActiveFlows    int
}

// Result is the outcome of one testbed run.
type Result struct {
	Mode     Mode
	Timeline []TickStat

	Flows          int
	FlowsOnTime    int
	Tasks          int
	TasksCompleted int
	TasksRejected  int

	TotalBytes      int64
	UsefulBytes     float64
	WastedBytes     float64
	ControlMessages int
	DroppedMessages int
	TableInstalls   int
	TableRejects    int

	// SourceCapacity is the aggregate uplink capacity (bytes/second) of
	// the distinct sending hosts — the normalizer of the effective
	// application throughput curve.
	SourceCapacity float64
}

// EffectiveThroughput returns the Fig. 14 series: per-millisecond useful
// goodput as a percentage of the run's peak aggregate delivery rate. Under
// TAPS every delivered byte belongs to an admitted (hence completing)
// flow, so the curve sits at ~100% while senders stay busy and tails off
// as they drain; under Fair Sharing competition makes a large share of the
// delivered bytes belong to flows that later miss, so the curve is lower
// and unstable — the paper's Fig. 14 contrast.
func (r *Result) EffectiveThroughput() (ms []float64, pct []float64) {
	if len(r.Timeline) == 0 {
		return nil, nil
	}
	bucket := simtime.Millisecond
	useful := make(map[simtime.Time]float64)
	total := make(map[simtime.Time]float64)
	var maxT simtime.Time
	for _, ts := range r.Timeline {
		b := ts.Time / bucket
		useful[b] += ts.UsefulBytes
		total[b] += ts.DeliveredBytes
		maxT = max(maxT, b)
	}
	// Normalize by the sustained peak delivery rate (95th percentile of
	// busy buckets) so a single spiky millisecond does not set the bar.
	busy := make([]float64, 0, len(total))
	for _, v := range total {
		if v > 0 {
			busy = append(busy, v)
		}
	}
	if len(busy) == 0 {
		return nil, nil
	}
	sort.Float64s(busy)
	peak := busy[len(busy)*95/100]
	if peak <= 0 {
		return nil, nil
	}
	for b := simtime.Time(0); b <= maxT; b++ {
		ms = append(ms, float64(b))
		pct = append(pct, min(100*useful[b]/peak, 100))
	}
	return ms, pct
}

// Testbed is one run of the emulation. Create with New, execute with Run.
type Testbed struct {
	cfg      Config
	mode     Mode
	graph    *topology.Graph
	routing  topology.Routing
	kernel   *core.Kernel // the controller's decision procedure
	flows    []*tbFlow
	tasks    [][]flowID
	arrivals []simtime.Time
	switches map[topology.NodeID]*switchState
	inflight []message
	grants   []grant // committed plans on their way, in decision order
	accepted map[int]bool
	decided  map[int]bool
	res      *Result
	tick     int

	// sender-side protocol state: when each task last probed, and
	// whether a decision (grant/reject) has reached the senders.
	lastProbe map[int]int
	resolved  map[int]bool
	sendCount int

	// deliveries[i] lists the (flow, bytes) moved during tick i, so that
	// finalize can attribute per-tick useful bytes exactly.
	deliveries [][]delivery
	cur        []delivery
}

// delivery is one flow's byte movement within one tick.
type delivery struct {
	flow  flowID
	bytes float64
}

// New builds a testbed over the graph for the given workload. The same
// sim.TaskSpec workload type used by the simulator describes testbed
// traffic.
func New(g *topology.Graph, r topology.Routing, mode Mode, cfg Config, tasks []sim.TaskSpec) *Testbed {
	cfg = cfg.withDefaults()
	tb := &Testbed{
		cfg:       cfg,
		mode:      mode,
		graph:     g,
		routing:   r,
		switches:  make(map[topology.NodeID]*switchState),
		accepted:  make(map[int]bool),
		decided:   make(map[int]bool),
		lastProbe: make(map[int]int),
		resolved:  make(map[int]bool),
		res:       &Result{Mode: mode},
	}
	tb.kernel = core.NewKernel(g, r, core.DefaultConfig(), ctlPlane{tb})
	for i := 0; i < g.NumNodes(); i++ {
		n := g.Node(topology.NodeID(i))
		if n.Kind != topology.Host {
			tb.switches[n.ID] = &switchState{
				id: n.ID, capacity: cfg.FlowTableCapacity, table: make(map[flowID]topology.LinkID),
			}
		}
	}
	sources := make(map[topology.NodeID]bool)
	ordered := append([]sim.TaskSpec(nil), tasks...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Arrival < ordered[j].Arrival })
	for ti, spec := range ordered {
		var ids []flowID
		for _, fs := range spec.Flows {
			f := &tbFlow{
				id:        flowID(len(tb.flows)),
				task:      ti,
				src:       fs.Src,
				dst:       fs.Dst,
				size:      fs.Size,
				arrival:   spec.Arrival,
				deadline:  spec.Arrival + spec.Deadline,
				remaining: float64(fs.Size),
			}
			if mode == ModeFairSharing && fs.Src != fs.Dst {
				f.path = topology.ECMP(r, fs.Src, fs.Dst, uint64(f.id))
			}
			tb.flows = append(tb.flows, f)
			ids = append(ids, f.id)
			sources[fs.Src] = true
			tb.res.TotalBytes += fs.Size
		}
		tb.tasks = append(tb.tasks, ids)
		tb.arrivals = append(tb.arrivals, spec.Arrival)
	}
	for h := range sources {
		if out := g.Out(h); len(out) > 0 {
			tb.res.SourceCapacity += g.Link(out[0]).Capacity
		}
	}
	tb.res.Tasks = len(tb.tasks)
	tb.res.Flows = len(tb.flows)
	return tb
}

func (tb *Testbed) now() simtime.Time { return simtime.Time(tb.tick) * tickDuration }

func (tb *Testbed) send(kind msgKind, task int, flow flowID) {
	tb.res.ControlMessages++
	tb.sendCount++
	if tb.cfg.DropEveryN > 0 && splitmix(uint64(tb.sendCount))%uint64(tb.cfg.DropEveryN) == 0 {
		tb.res.DroppedMessages++
		return
	}
	tb.inflight = append(tb.inflight, message{
		deliverTick: tb.tick + tb.cfg.ControlLatencyTicks,
		kind:        kind, task: task, flow: flow,
	})
}

// Run executes the emulation until all flows are done, discarded, or
// expired (plus a drain margin), and returns the result.
func (tb *Testbed) Run() (*Result, error) {
	maxTicks := tb.horizonTicks()
	for tb.tick = 0; tb.tick < maxTicks; tb.tick++ {
		tb.deliverControl()
		tb.landPlans()
		tb.hostArrivals()
		tb.dataPlane()
		if tb.finished() {
			break
		}
	}
	if !tb.finished() {
		return nil, fmt.Errorf("sdn: %s run did not converge within %d ticks", tb.mode, maxTicks)
	}
	tb.finalize()
	return tb.res, nil
}

// horizonTicks bounds the run: last deadline plus the serialized residual
// work plus control slack.
func (tb *Testbed) horizonTicks() int {
	var last simtime.Time
	var work simtime.Time
	for _, f := range tb.flows {
		last = max(last, f.deadline)
		if out := tb.graph.Out(f.src); len(out) > 0 {
			work += sim.DurationFor(float64(f.size), tb.graph.Link(out[0]).Capacity)
		}
	}
	return int((last+work)/tickDuration) + 100*tb.cfg.ControlLatencyTicks + 16
}

// hostArrivals makes senders emit probes (TAPS) the tick a task arrives,
// and re-probe if no decision has come back within probeRetryTicks or a
// round trip, whichever is longer: lost probes or lost replies are retried
// until the senders hear a verdict, and a reply that is only late is not.
func (tb *Testbed) hostArrivals() {
	if tb.mode != ModeTAPS {
		return
	}
	now := tb.now()
	retry := max(probeRetryTicks, 2*tb.cfg.ControlLatencyTicks)
	for ti, at := range tb.arrivals {
		if tb.resolved[ti] || at > now {
			continue
		}
		if last, probed := tb.lastProbe[ti]; probed && tb.tick-last < retry {
			continue
		}
		tb.lastProbe[ti] = tb.tick
		tb.send(msgProbe, ti, -1)
	}
}

// deliverControl processes all messages due this tick, in send order.
func (tb *Testbed) deliverControl() {
	var rest []message
	var due []message
	for _, m := range tb.inflight {
		if m.deliverTick <= tb.tick {
			due = append(due, m)
		} else {
			rest = append(rest, m)
		}
	}
	tb.inflight = rest
	for _, m := range due {
		switch m.kind {
		case msgProbe:
			tb.controllerAdmit(m.task)
		case msgGrant:
			// Senders record slices; nothing else to do — grant state
			// was written by the controller and gated on this tick.
			tb.resolved[m.task] = true
			for _, fid := range tb.tasks[m.task] {
				tb.flows[fid].granted = true
			}
		case msgReject:
			tb.resolved[m.task] = true
			for _, fid := range tb.tasks[m.task] {
				tb.flows[fid].discarded = true
			}
		case msgTerm:
			tb.controllerTerm(m.flow)
		}
	}
}

// ctlPlane carries out the kernel's preemptions on the data plane.
type ctlPlane struct{ tb *Testbed }

// Discard stops a preempted task: its unfinished flows are abandoned and
// their forwarding entries withdrawn. A rejected newcomer has neither
// slices nor entries yet; its senders hear the verdict by message.
func (p ctlPlane) Discard(_ simtime.Time, task, by int64) {
	if by == span.NoTask {
		return
	}
	tb := p.tb
	tb.accepted[int(task)] = false
	for _, fid := range tb.tasks[task] {
		if f := tb.flows[fid]; !f.done {
			f.discarded = true
			tb.removeTables(f)
		}
	}
}

// controllerAdmit hands a newly probed task to the kernel (Alg. 1 + the
// reject rule) and carries out its decision.
func (tb *Testbed) controllerAdmit(task int) {
	// Slices are planned from the instant the reply reaches the senders.
	now := tb.now() + simtime.Time(tb.cfg.ControlLatencyTicks)*tickDuration
	if tb.decided[task] {
		// Duplicate probe: the previous reply was lost. The verdict is
		// idempotent, but a lost grant means the senders missed their
		// original slices — re-plan the surviving flows from now before
		// re-granting.
		if tb.accepted[task] {
			tb.kernel.Replan(now, int64(task))
			tb.sendPlan()
			tb.send(msgGrant, task, -1)
		} else {
			tb.send(msgReject, task, -1)
		}
		return
	}
	tb.decided[task] = true
	specs := make([]core.FlowSpec, len(tb.tasks[task]))
	var deadline simtime.Time // shared by the task's flows
	for i, fid := range tb.tasks[task] {
		f := tb.flows[fid]
		deadline = f.deadline
		specs[i] = core.FlowSpec{Key: uint64(fid), Src: f.src, Dst: f.dst, Size: f.size}
	}
	decision, _ := tb.kernel.TaskArrived(now, int64(task), deadline, specs)
	tb.sendPlan()
	if decision == core.RejectNew {
		tb.send(msgReject, task, -1)
	} else {
		tb.accepted[task] = true
		tb.send(msgGrant, task, -1)
	}
}

// splitmix is the SplitMix64 finalizer: a deterministic aperiodic hash for
// the fault injector.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sendPlan puts the plan the kernel just committed on its way: every
// routed flow's grant lands with the decision's reply.
func (tb *Testbed) sendPlan() {
	for _, kf := range tb.kernel.Committed() {
		if kf.Path != nil {
			tb.grants = append(tb.grants, grant{tb.tick + tb.cfg.ControlLatencyTicks, tb.flows[kf.Key], kf.Path, kf.Slices})
		}
	}
}

// landPlans installs the grants that land this tick: a flow still running
// gets its path and slices, and its forwarding entries move to the new
// path.
func (tb *Testbed) landPlans() {
	for ; len(tb.grants) > 0 && tb.grants[0].tick <= tb.tick; tb.grants = tb.grants[1:] {
		if g, f := tb.grants[0], tb.grants[0].f; !f.done && !f.discarded {
			if len(f.path) > 0 {
				tb.removeTables(f)
			}
			f.path, f.slices = g.path, g.slices
			tb.installTables(f)
		}
	}
}

// installTables adds the flow to every switch along its path (4A).
func (tb *Testbed) installTables(f *tbFlow) {
	for _, l := range f.path {
		link := tb.graph.Link(l)
		sw, ok := tb.switches[link.Src]
		if !ok {
			continue // host uplink needs no entry
		}
		if sw.install(f.id, l) {
			tb.res.TableInstalls++
		} else {
			tb.res.TableRejects++
		}
	}
}

// removeTables withdraws the flow's entries (flow completed or preempted).
func (tb *Testbed) removeTables(f *tbFlow) {
	for _, l := range f.path {
		if sw, ok := tb.switches[tb.graph.Link(l).Src]; ok {
			sw.remove(f.id)
		}
	}
}

// controllerTerm handles a TERM: withdraw the flow's entries (§IV-C).
func (tb *Testbed) controllerTerm(fid flowID) {
	f := tb.flows[fid]
	tb.kernel.FlowFinished(tb.now(), uint64(fid), f.remaining)
	tb.removeTables(f)
}

// forwardable reports whether every switch on the path has the flow
// installed.
func (tb *Testbed) forwardable(f *tbFlow) bool {
	for _, l := range f.path {
		link := tb.graph.Link(l)
		sw, ok := tb.switches[link.Src]
		if !ok {
			continue
		}
		if got, ok := sw.table[f.id]; !ok || got != l {
			return false
		}
	}
	return true
}

// dataPlane moves bytes for the current tick.
func (tb *Testbed) dataPlane() {
	now := tb.now()
	tickIv := simtime.Interval{Start: now, End: now + tickDuration}
	stat := TickStat{Time: now}
	tb.cur = nil

	switch tb.mode {
	case ModeTAPS:
		usage := make(map[topology.LinkID]float64)
		for _, f := range tb.flows {
			if f.done || f.discarded || !f.granted || f.arrival > now {
				continue
			}
			overlap := simtime.Intersect(f.slices, simtime.NewIntervalSet(tickIv)).Total()
			if overlap <= 0 {
				continue
			}
			if !tb.forwardable(f) {
				continue // table entry missing: slice is lost
			}
			rate := tb.graph.MinCapacity(f.path)
			budget := rate * float64(overlap) / 1e6
			bytes := min(budget, f.remaining)
			for _, l := range f.path {
				usage[l] += bytes
				if usage[l] > tb.graph.Link(l).Capacity*float64(tickDuration)/1e6+1 {
					// Exclusivity violated: planner bug.
					panic(fmt.Sprintf("sdn: link %s over budget", tb.graph.Link(l).Name))
				}
			}
			tb.deliver(f, bytes, &stat)
		}
	case ModeFairSharing:
		tb.fairShareTick(tickIv, &stat)
	}
	for _, f := range tb.flows {
		if !f.done && !f.discarded && f.arrival <= now && f.remaining > 0 {
			stat.ActiveFlows++
		}
	}
	tb.res.Timeline = append(tb.res.Timeline, stat)
	tb.deliveries = append(tb.deliveries, tb.cur)
}

// fairShareTick distributes each link's per-tick byte budget max-min
// fairly among the flows crossing it (two-pass water fill).
func (tb *Testbed) fairShareTick(tickIv simtime.Interval, stat *TickStat) {
	now := tickIv.Start
	var active []*tbFlow
	for _, f := range tb.flows {
		if f.done || f.arrival > now || f.remaining <= 0 {
			continue
		}
		if f.deadline <= now {
			continue // §V-A: expired flows stop transmitting
		}
		active = append(active, f)
	}
	budget := make(map[topology.LinkID]float64)
	count := make(map[topology.LinkID]int)
	for _, f := range active {
		for _, l := range f.path {
			if _, ok := budget[l]; !ok {
				budget[l] = tb.graph.Link(l).Capacity * float64(tickDuration) / 1e6
			}
			count[l]++
		}
	}
	// Pass 1: equal share bounded by the tightest link.
	alloc := make([]float64, len(active))
	for i, f := range active {
		share := -1.0
		for _, l := range f.path {
			s := budget[l] / float64(count[l])
			if share < 0 || s < share {
				share = s
			}
		}
		alloc[i] = min(share, f.remaining)
	}
	for i, f := range active {
		for _, l := range f.path {
			budget[l] -= alloc[i]
			_ = l
		}
		_ = f
	}
	// Pass 2: hand leftovers to flows with residual room, in order.
	for i, f := range active {
		if alloc[i] >= f.remaining {
			continue
		}
		extra := max(budget[f.path[0]], 0)
		for _, l := range f.path[1:] {
			if b := max(budget[l], 0); b < extra {
				extra = b
			}
		}
		if extra > 0 {
			extra = min(extra, f.remaining-alloc[i])
			alloc[i] += extra
			for _, l := range f.path {
				budget[l] -= extra
			}
		}
	}
	for i, f := range active {
		if alloc[i] > 0 {
			tb.deliver(f, alloc[i], stat)
		}
	}
}

// deliver moves bytes into the flow and fires TERM on completion.
func (tb *Testbed) deliver(f *tbFlow, bytes float64, stat *TickStat) {
	f.remaining -= bytes
	f.sent += bytes
	stat.DeliveredBytes += bytes
	tb.cur = append(tb.cur, delivery{flow: f.id, bytes: bytes})
	if f.remaining <= 1e-9 {
		f.remaining = 0
		f.done = true
		f.doneAt = tb.now() + tickDuration
		if tb.mode == ModeTAPS {
			tb.send(msgTerm, f.task, f.id)
		}
	}
}

// finished reports whether no flow can make further progress.
func (tb *Testbed) finished() bool {
	if len(tb.inflight) > 0 {
		return false
	}
	now := tb.now()
	for ti, at := range tb.arrivals {
		if at > now {
			return false
		}
		if tb.mode == ModeTAPS && !tb.resolved[ti] {
			return false
		}
	}
	for _, f := range tb.flows {
		if f.done || f.discarded {
			continue
		}
		switch tb.mode {
		case ModeTAPS:
			// An accepted flow still counts as pending only while its
			// deadline is ahead: a flow stranded by a refused table
			// install (or a lost slice) is terminal once it expires.
			if tb.accepted[f.task] && f.remaining > 0 && f.deadline > now {
				return false
			}
		case ModeFairSharing:
			if f.remaining > 0 && f.deadline > now {
				return false
			}
		}
	}
	return true
}

// finalize computes summary counters and back-fills useful bytes.
func (tb *Testbed) finalize() {
	useful := make(map[flowID]bool)
	for _, f := range tb.flows {
		if f.onTime() {
			tb.res.FlowsOnTime++
			useful[f.id] = true
			tb.res.UsefulBytes += float64(f.size)
		} else {
			tb.res.WastedBytes += f.sent
		}
	}
	for ti, flows := range tb.tasks {
		done := len(flows) > 0
		for _, fid := range flows {
			if !tb.flows[fid].onTime() {
				done = false
				break
			}
		}
		if done {
			tb.res.TasksCompleted++
		}
		if tb.mode == ModeTAPS && tb.decided[ti] && !tb.accepted[ti] {
			tb.res.TasksRejected++
		}
	}
	// Back-fill the per-tick useful bytes from the recorded deliveries.
	for i, ds := range tb.deliveries {
		for _, d := range ds {
			if useful[d.flow] {
				tb.res.Timeline[i].UsefulBytes += d.bytes
			}
		}
	}
}
