// Command tapsload is the controller soak harness: an open-loop load
// generator that drives N concurrent tapsagent-protocol connections
// against a TAPS controller, submits tasks with Poisson arrivals, and
// reports admission throughput plus decision-latency quantiles — both
// client-observed and, when it can reach the controller's telemetry, the
// per-stage decomposition from GET /load.
//
// Open-loop means arrivals do not wait for decisions: if the controller
// slows down, work keeps arriving and latency shows it (closed-loop
// generators hide exactly the collapse a soak exists to find). The
// -tightness knob scales task deadlines relative to -deadline-ms; values
// well below 1 reproduce RCD-style close-to-deadline storms where the
// reject rule and preemption churn hardest.
//
// Usage:
//
//	tapsload -selfhost -conns 1000 -rate 2000 -duration 30s      # in-process controller
//	tapsload -addr 127.0.0.1:7474 -conns 10000 -rate 5000        # against a live tapsctl
//
// The report is one JSON document on stdout. Exit status is non-zero if
// any probe was dropped or the controller finished unhealthy — the CI
// smoke gate.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"taps/internal/netctl"
	"taps/internal/obs"
	"taps/internal/simtime"
	"taps/internal/topology"
)

func main() {
	var (
		addr      = flag.String("addr", "", "controller address (empty with -selfhost)")
		httpAt    = flag.String("http", "", "controller monitoring URL (e.g. http://127.0.0.1:8080) to pull per-stage telemetry from; implied by -selfhost")
		selfhost  = flag.Bool("selfhost", false, "run an in-process controller instead of dialing one")
		topo      = flag.String("topo", "testbed", topology.TopoUsage()+" (with -addr: the controller's -topo)")
		k         = flag.Int("k", topology.DefaultSizes().K, topology.SizeUsage("k")+" (with -addr: the controller's -k)")
		speedup   = flag.Float64("speedup", 20, "selfhost: virtual µs per real µs")
		conns     = flag.Int("conns", 1000, "concurrent agent connections")
		rate      = flag.Float64("rate", 1000, "task arrivals per second (Poisson, open-loop)")
		warmup    = flag.Duration("warmup", 2*time.Second, "warmup phase (submitted, not measured)")
		duration  = flag.Duration("duration", 10*time.Second, "measure phase")
		deadline  = flag.Float64("deadline-ms", 200, "base task deadline in virtual ms")
		tightness = flag.Float64("tightness", 1, "deadline multiplier; << 1 is an RCD-style close-to-deadline storm")
		flows     = flag.Int("flows", 1, "flows per task")
		size      = flag.Int64("size", 125_000, "bytes per flow")
		seed      = flag.Int64("seed", 1, "arrival/placement PRNG seed")
		declogF   = flag.String("declog", "", "selfhost: write-ahead decision log path, so the soak exercises the declog_sync stage (empty: off)")
	)
	flag.Parse()
	if err := run(config{
		addr: *addr, httpAt: *httpAt, selfhost: *selfhost, topo: *topo, k: *k,
		speedup: *speedup, conns: *conns, rate: *rate, warmup: *warmup,
		duration: *duration, deadlineMs: *deadline, tightness: *tightness,
		flows: *flows, size: *size, seed: *seed, declog: *declogF,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "tapsload:", err)
		os.Exit(1)
	}
}

type config struct {
	addr, httpAt, topo    string
	declog                string
	selfhost              bool
	k, conns, flows       int
	speedup, rate         float64
	warmup, duration      time.Duration
	deadlineMs, tightness float64
	size, seed            int64
}

// Report is the run's JSON output.
type Report struct {
	Conns          int     `json:"conns"`
	RatePerSec     float64 `json:"rate_per_sec"`
	Tightness      float64 `json:"tightness"`
	DeadlineVirtMs float64 `json:"deadline_virt_ms"`
	MeasureSec     float64 `json:"measure_sec"`

	Submitted int64 `json:"submitted"`
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"`
	Errors    int64 `json:"errors"`

	ThroughputPerSec float64 `json:"throughput_per_sec"` // decisions completed / measure time
	DecisionMeanMs   float64 `json:"decision_mean_ms"`   // client-observed, measure phase
	DecisionP50Ms    float64 `json:"decision_p50_ms"`
	DecisionP95Ms    float64 `json:"decision_p95_ms"`
	DecisionP99Ms    float64 `json:"decision_p99_ms"`
	DecisionMaxMs    float64 `json:"decision_max_ms"`

	// ControllerLoad is the controller's own /load document at the end of
	// the measure phase (selfhost or -http; nil otherwise).
	ControllerLoad *netctl.Load `json:"controller_load,omitempty"`
}

func run(cfg config) error {
	raiseFDLimit()
	sizes := topology.DefaultSizes()
	sizes.K = cfg.k
	g, r, err := topology.ByName(cfg.topo, sizes)
	if err != nil {
		return err
	}
	// Hosts the agent fleet claims: the selfhost graph, or (remote) the
	// same -topo/-k the operator started the controller with — agents only
	// need valid host IDs to register and place flows. The other size
	// flags keep tapsctl's defaults.
	hosts := g.Hosts()

	var ctl *netctl.Controller
	if cfg.selfhost {
		ctl = netctl.NewController(g, r, netctl.ControllerConfig{Speedup: cfg.speedup})
		if cfg.declog != "" {
			if err := ctl.EnableDecisionLog(cfg.declog); err != nil {
				return err
			}
		}
		go ctl.Serve("127.0.0.1:0")
		deadline := time.Now().Add(2 * time.Second)
		for ctl.Addr() == "" {
			if time.Now().After(deadline) {
				return errors.New("in-process controller did not bind")
			}
			time.Sleep(time.Millisecond)
		}
		cfg.addr = ctl.Addr()
		defer ctl.Close()
	}
	if cfg.addr == "" {
		return errors.New("need -addr or -selfhost")
	}

	log.Printf("tapsload: dialing %d connections to %s", cfg.conns, cfg.addr)
	agents, err := dialAll(cfg.addr, cfg.conns, hosts)
	if err != nil {
		return err
	}
	defer func() {
		for _, a := range agents {
			a.Close()
		}
	}()

	var (
		// Client-observed decision latency over the whole measure phase
		// (the controller keeps the live windowed view).
		latMu     sync.Mutex
		lat       obs.Histogram
		submitted atomic.Int64
		accepted  atomic.Int64
		rejected  atomic.Int64
		errs      atomic.Int64
		wg        sync.WaitGroup
	)
	virtDeadline := simtime.Time(cfg.deadlineMs * cfg.tightness * 1000) // virtual µs
	submit := func(a *netctl.Agent, id int64, fls []netctl.FlowInfo, measured bool) {
		defer wg.Done()
		t0 := time.Now()
		err := a.SubmitTask(id, virtDeadline, fls)
		d := time.Since(t0)
		if !measured {
			return
		}
		submitted.Add(1)
		switch {
		case err == nil:
			accepted.Add(1)
		case errors.Is(err, netctl.ErrRejected):
			rejected.Add(1)
		default:
			errs.Add(1)
			return // connection-level failure: not a decision latency
		}
		latMu.Lock()
		lat.Observe(d)
		latMu.Unlock()
	}

	// Open-loop dispatcher: Poisson arrivals assigned to random
	// connections; each submission runs in its own goroutine so a slow
	// decision never throttles the arrival process.
	rng := rand.New(rand.NewSource(cfg.seed))
	log.Printf("tapsload: warmup %v, then measuring %v at %g tasks/sec (tightness %g)",
		cfg.warmup, cfg.duration, cfg.rate, cfg.tightness)
	start := time.Now()
	measureFrom := start.Add(cfg.warmup)
	end := measureFrom.Add(cfg.duration)
	next := start
	var id int64
	for {
		now := time.Now()
		if now.After(end) {
			break
		}
		next = next.Add(time.Duration(rng.ExpFloat64() / cfg.rate * float64(time.Second)))
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		id++
		a := agents[rng.Intn(len(agents))]
		fls := make([]netctl.FlowInfo, cfg.flows)
		for i := range fls {
			src := hosts[rng.Intn(len(hosts))]
			dst := hosts[rng.Intn(len(hosts))]
			for dst == src {
				dst = hosts[rng.Intn(len(hosts))]
			}
			fls[i] = netctl.FlowInfo{ID: uint64(id)*16 + uint64(i), Src: src, Dst: dst, Size: cfg.size}
		}
		wg.Add(1)
		go submit(a, id, fls, time.Now().After(measureFrom))
	}
	// Drain: every dispatched submission resolves (decision or connection
	// loss), but an overloaded controller can owe minutes of backlog — cap
	// the wait and cut the connections if it blows through. Aborted
	// submissions then count as errors, which fails the smoke gate: an
	// open-loop run that cannot drain IS the finding.
	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(60 * time.Second):
		log.Printf("tapsload: drain timeout, cutting %d connections", len(agents))
		for _, a := range agents {
			a.Close()
		}
		<-drained
	}
	measured := time.Since(measureFrom)

	rep := Report{
		Conns:          cfg.conns,
		RatePerSec:     cfg.rate,
		Tightness:      cfg.tightness,
		DeadlineVirtMs: cfg.deadlineMs * cfg.tightness,
		MeasureSec:     measured.Seconds(),
		Submitted:      submitted.Load(),
		Accepted:       accepted.Load(),
		Rejected:       rejected.Load(),
		Errors:         errs.Load(),
	}
	decided := rep.Accepted + rep.Rejected
	if rep.MeasureSec > 0 {
		rep.ThroughputPerSec = float64(decided) / rep.MeasureSec
	}
	// Every submit goroutine has returned: lat is quiescent.
	toMs := func(d time.Duration) float64 { return float64(d) / 1e6 }
	if n := lat.Count(); n > 0 {
		rep.DecisionMeanMs = toMs(lat.Sum()) / float64(n)
	}
	rep.DecisionP50Ms = toMs(lat.Quantile(0.50))
	rep.DecisionP95Ms = toMs(lat.Quantile(0.95))
	rep.DecisionP99Ms = toMs(lat.Quantile(0.99))
	rep.DecisionMaxMs = toMs(lat.Max())

	switch {
	case ctl != nil:
		ld := ctl.Load()
		rep.ControllerLoad = &ld
	case cfg.httpAt != "":
		ld, err := fetchLoad(cfg.httpAt)
		if err != nil {
			log.Printf("tapsload: fetching %s/load: %v", cfg.httpAt, err)
		} else {
			rep.ControllerLoad = ld
		}
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}

	// The smoke gate: an unhealthy controller or dropped probes fail the
	// run even if every client call returned.
	if rep.Errors > 0 {
		return fmt.Errorf("%d submissions failed at the connection level", rep.Errors)
	}
	if ctl != nil {
		if h := ctl.Health(); h.Status != "ok" || h.ProbesDropped != 0 {
			return fmt.Errorf("controller unhealthy after soak: %+v", h)
		}
	}
	return nil
}

// dialAll opens the connection fleet with bounded concurrency; hosts are
// assigned round-robin.
func dialAll(addr string, n int, hosts []topology.NodeID) ([]*netctl.Agent, error) {
	agents := make([]*netctl.Agent, n)
	errCh := make(chan error, n)
	sem := make(chan struct{}, 64)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			a, err := netctl.Dial(addr, fmt.Sprintf("load-%d", i), hosts[i%len(hosts)])
			if err != nil {
				errCh <- fmt.Errorf("dial conn %d: %w", i, err)
				return
			}
			agents[i] = a
		}(i)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		for _, a := range agents {
			if a != nil {
				a.Close()
			}
		}
		return nil, err
	default:
	}
	return agents, nil
}

// fetchLoad pulls GET /load from a controller's monitoring endpoint.
func fetchLoad(base string) (*netctl.Load, error) {
	resp, err := http.Get(strings.TrimRight(base, "/") + "/load")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("GET /load: HTTP %d", resp.StatusCode)
	}
	var ld netctl.Load
	if err := json.NewDecoder(resp.Body).Decode(&ld); err != nil {
		return nil, err
	}
	return &ld, nil
}
