// Command tapsctl runs the networked TAPS controller (internal/netctl)
// over a configured topology and serves host agents over TCP.
//
// Usage:
//
//	tapsctl -listen 127.0.0.1:7474 -topo testbed
//	tapsctl -listen :7474 -topo fattree -k 8 -speedup 10
//	tapsctl -declog taps.dlg -listen :7474        # flight recorder on
//	tapsctl -replay taps.dlg                      # time travel: world at end of log
//	tapsctl -replay taps.dlg -until 250000 -why 7 # why was task 7 discarded, as of t=250ms
//
// Agents connect with cmd/tapsagent (or the netctl.Agent API), submit
// tasks, and receive pre-allocated transmission slices. With -declog the
// controller writes every decision to an append-only log before agents
// hear of it, and a restarted controller pointed at the same log recovers
// its plan state without re-contacting anyone. -replay works offline on
// any such log (including one fetched from a live GET /declog).
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"

	"taps/internal/netctl"
	"taps/internal/topology"
)

func main() {
	sizes := topology.DefaultSizes()
	flag.IntVar(&sizes.Pods, "pods", sizes.Pods, topology.SizeUsage("pods"))
	flag.IntVar(&sizes.Racks, "racks", sizes.Racks, topology.SizeUsage("racks"))
	flag.IntVar(&sizes.Hosts, "hosts", sizes.Hosts, topology.SizeUsage("hosts"))
	flag.IntVar(&sizes.K, "k", sizes.K, topology.SizeUsage("k"))
	flag.IntVar(&sizes.N, "n", sizes.N, topology.SizeUsage("n"))
	var (
		listen  = flag.String("listen", "127.0.0.1:7474", "address to listen on")
		topo    = flag.String("topo", "testbed", topology.TopoUsage())
		speedup = flag.Float64("speedup", 1, "virtual µs per real µs")
		paths   = flag.Int("paths", 16, "candidate path cap")
		httpAt  = flag.String("http", "", "serve GET /status, /metrics, /declog, /trace, /why and /healthz on this address (empty: off)")
		declogF = flag.String("declog", "", "write-ahead decision log file (reopening an existing log recovers controller state)")
		replayF = flag.String("replay", "", "offline mode: replay this decision log instead of serving")
		untilF  = flag.Int64("until", 0, "replay: materialize state as of this virtual time in µs (0: end of log)")
		whyF    = flag.String("why", "", "replay: explain this task's fate (task ID or \"rejected\")")
		traceF  = flag.String("trace", "", "replay: write the reconstructed Chrome trace_event JSON here")
	)
	flag.Parse()

	if *replayF != "" {
		if err := runReplay(os.Stdout, *replayF, *untilF, *whyF, *traceF); err != nil {
			fmt.Fprintln(os.Stderr, "tapsctl:", err)
			os.Exit(1)
		}
		return
	}

	g, r, err := topology.ByName(*topo, sizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tapsctl:", err)
		os.Exit(1)
	}
	ctl := netctl.NewController(g, r, netctl.ControllerConfig{
		Speedup:  *speedup,
		MaxPaths: *paths,
		Logf:     log.Printf,
	})
	if *declogF != "" {
		if err := ctl.EnableDecisionLog(*declogF); err != nil {
			fmt.Fprintln(os.Stderr, "tapsctl:", err)
			os.Exit(1)
		}
	}
	// An interrupt closes the controller, which makes Serve return nil.
	go func() {
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt)
		<-ch
		ctl.Close()
	}()
	if *httpAt != "" {
		go func() {
			log.Printf("tapsctl: monitoring on http://%s/status", *httpAt)
			if err := http.ListenAndServe(*httpAt, ctl.HTTPHandler()); err != nil {
				log.Fatal(err)
			}
		}()
	}
	log.Printf("tapsctl: %s topology, %d hosts, listening on %s (speedup %gx)",
		*topo, len(g.Hosts()), *listen, *speedup)
	err = ctl.Serve(*listen)
	// Close syncs and closes the decision log; when the interrupt got there
	// first it waits for that call to finish, so the digest below counts
	// every decision made.
	if cerr := ctl.Close(); cerr != nil {
		fmt.Fprintln(os.Stderr, "tapsctl:", cerr)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Fprint(os.Stderr, ctl.Recorder().SummaryText())
	fmt.Fprint(os.Stderr, ctl.LoadSummaryText())
}
