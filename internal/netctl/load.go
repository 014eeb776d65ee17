package netctl

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"taps/internal/obs/sketch"
	"taps/internal/simtime"
)

// Stage is one phase of the controller's admission path. The
// decomposition answers the question ROADMAP item 2 depends on: when
// decision latency climbs under load, which stage is the wall — the
// planner, the write-ahead fsync, the grant broadcast fan-out, or just
// contention for the decision lock.
type Stage uint8

// Admission-path stages, in execution order within one probe.
const (
	// StageDecode: JSON-unmarshalling one inbound frame off the socket
	// (per frame, not per probe; excludes time blocked waiting for bytes).
	StageDecode Stage = iota
	// StageLockWait: waiting for the controller decision lock. Rises when
	// admissions serialize behind each other — the sharding signal.
	StageLockWait
	// StagePlan: all planning passes run while deciding the probe
	// (tentative plan plus any post-reject/post-preempt replan).
	StagePlan
	// StageDeclogSync: write-ahead decision-log fsync before any agent
	// hears the outcome.
	StageDeclogSync
	// StageBroadcast: telling the agents the outcome — collecting and
	// sorting the accepted tasks, encoding each grant or reject frame once,
	// and writing it to every agent socket. Encoding scales with accepted
	// tasks, writing with agents times accepted tasks.
	StageBroadcast
	// StageOther: what is left of the decision once the four stages above
	// are taken out — building the kernel's input, recording the task,
	// bookkeeping under the lock — so that lock_wait + plan + declog_sync +
	// broadcast + other = total on every decision.
	StageOther
	// StageTotal: the whole decision, lock wait included.
	StageTotal

	stageCount // number of stages; keep last
)

var stageNames = [stageCount]string{
	"decode",
	"lock_wait",
	"plan",
	"declog_sync",
	"broadcast",
	"other",
	"total",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage(?)"
}

// loadStats is the controller's always-on load telemetry: one windowed
// quantile sketch per stage plus the connection/probe counters behind
// /healthz and /load. Counter updates happen under Controller.mu (they
// ride existing critical sections); sketches have their own lock and are
// fed outside mu so slow scrapes never extend the decision lock.
type loadStats struct {
	stages [stageCount]*sketch.Sketch

	// inFlight counts probes between arrival at the handler and the end
	// of their decision (lock wait included), so it is atomic: the
	// increment happens before the decision lock is taken.
	inFlight atomic.Int64

	// Guarded by Controller.mu.
	peakAgents    int
	probesTotal   uint64
	probesDropped uint64
	termsTotal    uint64
}

func newLoadStats() *loadStats {
	ls := &loadStats{}
	for i := range ls.stages {
		ls.stages[i] = sketch.New(sketch.DefaultWindows, sketch.DefaultWidth)
	}
	return ls
}

// stageAdd accumulates one stage's elapsed time into the in-progress
// probe's accumulator. Only meaningful while Controller.mu is held with
// stageAcc installed (onProbe's critical section); a nil accumulator
// (onTerm, recovery, tests poking internals) makes it a no-op.
func (c *Controller) stageAdd(s Stage, d time.Duration) {
	if c.stageAcc != nil {
		c.stageAcc[s] += d
	}
}

// observeStages folds one finished probe's accumulator into the stage
// sketches. Called after Controller.mu is released.
func (c *Controller) observeStages(now int64, acc *[stageCount]time.Duration) {
	for i, d := range acc {
		if i == int(StageDecode) {
			continue // fed per frame by the codec hook, not per probe
		}
		if d > 0 || Stage(i) == StageTotal {
			c.load.stages[i].Observe(now, d)
		}
	}
}

// StageLoad is one stage's latency digest inside a Load document:
// windowed quantiles over the live horizon plus all-time aggregates.
type StageLoad struct {
	Stage       string  `json:"stage"`
	Count       uint64  `json:"count"`        // all-time samples
	WindowCount uint64  `json:"window_count"` // samples in the live horizon
	P50Ms       float64 `json:"p50_ms"`       // windowed
	P95Ms       float64 `json:"p95_ms"`
	P99Ms       float64 `json:"p99_ms"`
	WindowMaxMs float64 `json:"window_max_ms"`
	TotalP50Ms  float64 `json:"total_p50_ms"` // all-time
	TotalP95Ms  float64 `json:"total_p95_ms"`
	TotalP99Ms  float64 `json:"total_p99_ms"`
	TotalMaxMs  float64 `json:"total_max_ms"`
}

// Load is the controller's load document, served by GET /load: who is
// connected, how fast probes arrive, where decisions spend their time,
// and how the runtime behind it all is doing.
type Load struct {
	NowUs           simtime.Time `json:"now_us"`
	Agents          int          `json:"agents"`
	PeakAgents      int          `json:"peak_agents"`
	InFlightProbes  int64        `json:"in_flight_probes"`
	ProbesTotal     uint64       `json:"probes_total"`
	ProbesDropped   uint64       `json:"probes_dropped"`
	TermsTotal      uint64       `json:"terms_total"`
	ProbeRatePerSec float64      `json:"probe_rate_per_sec"` // over the window horizon
	WindowSec       float64      `json:"window_sec"`         // quantile horizon
	Stages          []StageLoad  `json:"stages"`
	DeclogPending   int          `json:"declog_pending_records"` // appended, not yet fsynced
	Goroutines      int          `json:"goroutines"`
	HeapAllocBytes  uint64       `json:"heap_alloc_bytes"`
	NumGC           uint32       `json:"num_gc"`
	GCPauseTotalMs  float64      `json:"gc_pause_total_ms"`
}

// Health is the controller's liveness document, served by GET /healthz.
// Status is "ok" while the controller is serving and the decision log has
// no sticky write error; otherwise it names the problem (and the HTTP
// handler downgrades the response to 503).
type Health struct {
	Status         string `json:"status"`
	Agents         int    `json:"agents"`
	InFlightProbes int64  `json:"in_flight_probes"`
	ProbesTotal    uint64 `json:"probes_total"`
	ProbesDropped  uint64 `json:"probes_dropped"`
	DeclogError    string `json:"declog_error,omitempty"`
}

// toMs renders a duration as the load document's milliseconds.
func toMs(d time.Duration) float64 { return float64(d) / 1e6 }

// Load assembles the current load document.
func (c *Controller) Load() Load {
	nowNs := time.Now().UnixNano() //taps:allow wallclock scrape instant: the live windows are the ones as of this read; never feeds virtual time
	c.mu.Lock()
	ld := Load{
		NowUs:          c.now(),
		Agents:         len(c.agents),
		PeakAgents:     c.load.peakAgents,
		InFlightProbes: c.load.inFlight.Load(),
		ProbesTotal:    c.load.probesTotal,
		ProbesDropped:  c.load.probesDropped,
		TermsTotal:     c.load.termsTotal,
	}
	dl := c.sink.Log
	c.mu.Unlock()
	ld.DeclogPending = dl.Pending()
	decisions := c.load.stages[StageTotal]
	ld.ProbeRatePerSec = decisions.Rate(nowNs)
	ld.WindowSec = decisions.Horizon().Seconds()
	for i := Stage(0); i < stageCount; i++ {
		// One copy of each distribution: every number of the row comes
		// from the same two instants.
		total := c.load.stages[i].Total()
		if total.Count() == 0 {
			continue
		}
		live := c.load.stages[i].Live(nowNs)
		ld.Stages = append(ld.Stages, StageLoad{
			Stage:       i.String(),
			Count:       total.Count(),
			WindowCount: live.Count(),
			P50Ms:       toMs(live.Quantile(0.50)),
			P95Ms:       toMs(live.Quantile(0.95)),
			P99Ms:       toMs(live.Quantile(0.99)),
			WindowMaxMs: toMs(live.Max()),
			TotalP50Ms:  toMs(total.Quantile(0.50)),
			TotalP95Ms:  toMs(total.Quantile(0.95)),
			TotalP99Ms:  toMs(total.Quantile(0.99)),
			TotalMaxMs:  toMs(total.Max()),
		})
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ld.Goroutines = runtime.NumGoroutine()
	ld.HeapAllocBytes = ms.HeapAlloc
	ld.NumGC = ms.NumGC
	ld.GCPauseTotalMs = float64(ms.PauseTotalNs) / 1e6
	return ld
}

// Health assembles the current health document.
func (c *Controller) Health() Health {
	c.mu.Lock()
	h := Health{
		Status:         "ok",
		Agents:         len(c.agents),
		InFlightProbes: c.load.inFlight.Load(),
		ProbesTotal:    c.load.probesTotal,
		ProbesDropped:  c.load.probesDropped,
	}
	dl := c.sink.Log
	closing := c.closing
	c.mu.Unlock()
	if err := dl.Err(); err != nil {
		h.Status = "declog write error"
		h.DeclogError = err.Error()
	} else if closing {
		h.Status = "shutting down"
	}
	return h
}

// StageSketch returns the live sketch behind one stage (for exporters and
// the load harness; nil for an out-of-range stage).
func (c *Controller) StageSketch(s Stage) *sketch.Sketch {
	if s >= stageCount {
		return nil
	}
	return c.load.stages[s]
}

// stageLabeled returns the exporter view of every stage sketch, in stage
// order.
func (c *Controller) stageLabeled() []sketch.Labeled {
	out := make([]sketch.Labeled, stageCount)
	for i := Stage(0); i < stageCount; i++ {
		out[i] = sketch.Labeled{Label: i.String(), Sketch: c.load.stages[i]}
	}
	return out
}

// LoadSummaryText renders the per-stage latency breakdown and connection
// peaks as a short human-readable report (tapsctl SIGINT). Quantiles are
// all-time: by the time an operator interrupts the process the live
// window is often already idle. Empty when no probe was ever decided.
func (c *Controller) LoadSummaryText() string {
	if c.load.stages[StageTotal].TotalCount() == 0 {
		return ""
	}
	c.mu.Lock()
	peak := c.load.peakAgents
	probes := c.load.probesTotal
	dropped := c.load.probesDropped
	c.mu.Unlock()
	var b strings.Builder
	b.WriteString("## controller load summary\n")
	fmt.Fprintf(&b, "agents:    %d peak concurrent; %d probes decided, %d dropped\n",
		peak, probes, dropped)
	b.WriteString("decision latency by stage (all-time): p50 / p95 / p99 / max\n")
	for i := Stage(0); i < stageCount; i++ {
		total := c.load.stages[i].Total()
		if total.Count() == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-12s %8.3fms %8.3fms %8.3fms %8.3fms  (%d samples)\n",
			i.String(), toMs(total.Quantile(0.50)), toMs(total.Quantile(0.95)),
			toMs(total.Quantile(0.99)), toMs(total.Max()), total.Count())
	}
	return b.String()
}
