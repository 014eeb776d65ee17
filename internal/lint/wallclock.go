package lint

import (
	"go/ast"
)

// Wallclock forbids wall-clock reads and sleeps in the simulated-time
// packages. Every instant the planner, the schedulers, and the engine
// reason about must flow through simtime: a single time.Now leaking into
// simulated-time math makes plans differ between runs, which silently
// voids the reproduction's bit-determinism guarantee (identical Fig. 6/7
// sweeps, parallel plans identical to sequential).
//
// Latency timing needs no exemption: it goes through obs.Stopwatch, which
// lives outside this analyzer's scope and yields a duration, never an
// instant of virtual time. The real SDN control plane's virtual-clock
// bridge and its scrape-time reads are the legitimate wall-clock users;
// each such site carries an explicit //taps:allow wallclock directive so
// the exemption is visible and reviewed.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc:  "no time.Now/time.Since/time.Sleep in simulated-time packages; use simtime or //taps:allow wallclock",
	AppliesTo: scoped(
		"taps/internal/core",
		"taps/internal/sched",
		"taps/internal/sim",
		"taps/internal/simtime",
		"taps/internal/experiments",
		"taps/internal/workload",
		"taps/internal/netctl",
		"taps/internal/obs/declog",
	),
	Run: runWallclock,
}

// wallclockBanned lists the time package's clock accessors. Types,
// constants and conversions (time.Duration, time.Microsecond) stay legal —
// only reading or waiting on the real clock is flagged.
var wallclockBanned = map[string]bool{
	"Now":   true,
	"Since": true,
	"Sleep": true,
	"Until": true,
	"Tick":  true,
	"After": true,
}

func runWallclock(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !wallclockBanned[sel.Sel.Name] {
				return true
			}
			pn := p.pkgNameOf(sel.X)
			if pn == nil || pn.Imported().Path() != "time" {
				return true
			}
			p.Reportf(sel.Pos(),
				"wall-clock time.%s in simulated-time code; route time through simtime, or annotate an observability/control-plane site with //taps:allow wallclock",
				sel.Sel.Name)
			return true
		})
	}
}
