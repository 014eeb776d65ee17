package netctl

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"slices"
	"sort"
	"strconv"
	"time"

	"taps/internal/obs"
	"taps/internal/obs/declog"
	"taps/internal/obs/sketch"
	"taps/internal/obs/span"
	"taps/internal/simtime"
)

// StatusLink is one link's planned occupancy in the status document.
type StatusLink struct {
	Link   int32        `json:"link"`
	Name   string       `json:"name"`
	BusyUs simtime.Time `json:"busy_us"`
}

// Status is the controller's monitoring document, served by the HTTP
// handler at /status.
type Status struct {
	NowUs         simtime.Time `json:"now_us"`
	Agents        int          `json:"agents"`
	AcceptedTasks []int64      `json:"accepted_tasks"`
	RejectedTasks []int64      `json:"rejected_tasks"`
	PendingFlows  int          `json:"pending_flows"`
	BusiestLinks  []StatusLink `json:"busiest_links"`
	OverlapErrors int          `json:"overlap_errors"`
	TopologyHosts int          `json:"topology_hosts"`
	TopologyLinks int          `json:"topology_links"`
	SpeedupFactor float64      `json:"speedup"`
	DecidedTasks  int          `json:"decided_tasks"`
}

// status assembles the document under the controller lock.
func (c *Controller) status() Status {
	snap := c.Snapshot()
	c.mu.Lock()
	st := Status{
		NowUs:         c.now(),
		Agents:        snap.Agents,
		AcceptedTasks: snap.AcceptedTasks,
		PendingFlows:  snap.PendingFlows,
		OverlapErrors: snap.OverlapViolations,
		TopologyHosts: len(c.graph.Hosts()),
		TopologyLinks: c.graph.NumLinks(),
		SpeedupFactor: c.cfg.Speedup,
		RejectedTasks: slices.Clone(c.svc.RejectedTasks()),
	}
	st.DecidedTasks = len(c.svc.AcceptedTasks()) + len(st.RejectedTasks)
	c.mu.Unlock()
	type lb struct {
		l    StatusLink
		busy simtime.Time
	}
	var links []lb
	for l, set := range snap.LinkBusy {
		links = append(links, lb{
			l:    StatusLink{Link: int32(l), Name: c.graph.Link(l).Name, BusyUs: set.Total()},
			busy: set.Total(),
		})
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].busy != links[j].busy {
			return links[i].busy > links[j].busy
		}
		return links[i].l.Link < links[j].l.Link
	})
	for i, l := range links {
		if i >= 8 {
			break
		}
		st.BusiestLinks = append(st.BusiestLinks, l.l)
	}
	return st
}

// HTTPHandler returns a monitoring handler:
//
//	GET /status          -> Status JSON
//	GET /healthz         -> Health JSON; 200 while serving with a healthy
//	                        decision log, 503 otherwise
//	GET /load            -> Load JSON: connected agents, probe rate,
//	                        per-stage windowed decision-latency quantiles,
//	                        declog backlog, goroutine/GC stats
//	GET /metrics         -> Prometheus text exposition (build info,
//	                        decision counters, replan-latency histogram,
//	                        decision-log health, per-stage latency sketches)
//	GET /trace           -> Chrome trace_event JSON of the causal span
//	                        tree (open in Perfetto / chrome://tracing)
//	GET /why?task=N      -> plain-text causal explanation of task N's
//	                        fate (attribution chain for rejections)
//	GET /declog?off=N    -> the binary decision log from byte offset N
//	                        (fsynced first, so the tail is complete; the
//	                        log in memory when no file is attached).
//	                        Feed it to `tapsctl -replay` for time travel.
//	GET /debug/vars      -> expvar JSON
//	GET /debug/pprof/    -> runtime profiles
//
// /trace and /why replay the decision log on every request, so each costs
// time and memory linear in the log.
//
// Mount it on any mux/server the operator runs alongside Serve:
//
//	go http.ListenAndServe(":8080", ctl.HTTPHandler())
func (c *Controller) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		if err := enc.Encode(c.status()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h := c.Health()
		w.Header().Set("Content-Type", "application/json")
		if h.Status != "ok" {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(h)
	})
	mux.HandleFunc("GET /load", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		if err := enc.Encode(c.Load()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.WriteBuildInfo(w, c.epoch.UnixNano()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if err := obs.WritePrometheus(w, c.obs); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		now := time.Now().UnixNano() //taps:allow wallclock obs-only: live-window quantiles are anchored to scrape time
		if err := sketch.WritePrometheus(w, "taps_ctl_stage_seconds",
			"Controller admission-path latency by stage.", "stage",
			c.stageLabeled(), now); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("GET /trace", func(w http.ResponseWriter, r *http.Request) {
		tree, err := c.replay()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := span.WriteTraceEvents(w, tree); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("GET /why", func(w http.ResponseWriter, r *http.Request) {
		task, err := strconv.ParseInt(r.URL.Query().Get("task"), 10, 64)
		if err != nil {
			http.Error(w, "bad task: "+err.Error(), http.StatusBadRequest)
			return
		}
		tree, err := c.replay()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte(span.WhyText(tree, task)))
	})
	mux.HandleFunc("GET /declog", func(w http.ResponseWriter, r *http.Request) {
		off, err := parseOffset(r.URL.Query().Get("off"))
		if err != nil {
			http.Error(w, "bad off: "+err.Error(), http.StatusBadRequest)
			return
		}
		log, err := c.DecisionLog().Bytes()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(log[min(off, int64(len(log))):])
	})
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// replay folds the decision log, as written so far, into a span tree.
func (c *Controller) replay() (*span.Tree, error) {
	log, err := c.DecisionLog().Bytes()
	if err != nil {
		return nil, err
	}
	recs, _, err := declog.Read(bytes.NewReader(log))
	if err != nil {
		return nil, err
	}
	rp := declog.NewReplayer()
	rp.ApplyAll(recs)
	return rp.Tree(), nil
}

// parseOffset parses the optional ?off= byte offset: a non-negative int64,
// 0 when absent.
func parseOffset(s string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	off, err := strconv.ParseInt(s, 10, 64)
	if err == nil && off < 0 {
		err = fmt.Errorf("negative offset %d", off)
	}
	return off, err
}
