package netctl

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"taps/internal/core"
	"taps/internal/obs/declog"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// Redecide runs, under the decision lock, the input a logged record opens
// through the handlers recovery uses: what a restarted controller does
// with each input of its log.
func (c *Controller) Redecide(r *declog.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.redecide(r)
}

// recipeCounts tallies what a recipe log exercises.
type recipeCounts struct{ rejects, preempts, local, terms, reissues int }

// RecipeLog is the decision log of a controller on a k=4 fat-tree that
// decides probes one virtual millisecond apart, drawn as in
// TestLedgerMatchesFreshEncoding: one to three flows of 0.5–2 MB per task,
// a quarter of them local (done on arrival, so a newcomer can out-rank an
// admitted task and preempt it), deadlines 20–60 ms out. Before every
// third probe, the flows of the oldest admitted task that still has some
// are TERM'd; every 20th probe is followed by a duplicate of the newest
// admitted task's probe. It fails tb unless the log holds rejects,
// preemptions, local flows, TERMs and a re-issue.
func RecipeLog(tb testing.TB, probes int) []byte {
	tb.Helper()
	g, r := topology.FatTree(topology.FatTreeSpec{K: 4, LinkCapacity: topology.Gbps(1)})
	c := NewController(g, topology.NewCachedRouting(r), ControllerConfig{})
	hosts := g.Hosts()
	rng := rand.New(rand.NewSource(4))
	var n recipeCounts
	c.mu.Lock()
	defer c.mu.Unlock()
	for task := int64(1); task <= int64(probes); task++ {
		now := simtime.Time(task) * simtime.Millisecond
		if task%3 == 0 {
			n.terms += c.termOldest(now)
		}
		p := ProbeMsg{
			Task:     task,
			Deadline: now + 20*simtime.Millisecond + simtime.Time(rng.Int63n(int64(40*simtime.Millisecond))),
			Flows:    make([]FlowInfo, 1+rng.Intn(3)),
		}
		for j := range p.Flows {
			src := rng.Intn(len(hosts))
			dst := src
			if rng.Intn(4) > 0 {
				dst = (src + 1 + rng.Intn(len(hosts)-1)) % len(hosts)
			} else {
				n.local++
			}
			p.Flows[j] = FlowInfo{ID: uint64(task)<<8 | uint64(j),
				Src: hosts[src], Dst: hosts[dst], Size: 500e3 + rng.Int63n(1500e3+1)}
		}
		switch c.probe(now, p).Decision {
		case core.RejectNew:
			n.rejects++
		case core.Preempt:
			n.preempts++
		case core.Accept:
		}
		if accepted := c.svc.AcceptedTasks(); task%20 == 0 && len(accepted) > 0 {
			c.probe(now, ProbeMsg{Task: accepted[len(accepted)-1]})
			n.reissues++
		}
	}
	if n.rejects == 0 || n.preempts == 0 || n.local == 0 || n.terms == 0 || n.reissues == 0 {
		tb.Fatalf("the recipe log exercises %+v: it must have each", n)
	}
	b, err := c.sink.Log.Bytes()
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// termOldest TERMs at now every unfinished flow of the oldest admitted
// task that has one, and returns how many.
func (c *Controller) termOldest(now simtime.Time) int {
	for _, task := range c.svc.AcceptedTasks() {
		terms := 0
		for _, f := range c.svc.Kernel().Flows(task) {
			if !f.Done {
				c.svc.Term(now, f.Key, 0)
				terms++
			}
		}
		if terms > 0 {
			return terms
		}
	}
	return 0
}

var (
	stormLogOnce sync.Once
	stormLog     []byte
)

// BenchmarkControllerRecovery is a restart: NewController and
// EnableDecisionLog on a 2 000-probe recipe log (generated once per test
// binary), every input of which recovery decides again. ns/input divides
// the time by the inputs re-decided, as the recovery's log line counts
// them.
func BenchmarkControllerRecovery(b *testing.B) {
	stormLogOnce.Do(func() { stormLog = RecipeLog(b, 2000) })
	path := filepath.Join(b.TempDir(), "ctl.dlg")
	if err := os.WriteFile(path, stormLog, 0o644); err != nil {
		b.Fatal(err)
	}
	g, r := topology.FatTree(topology.FatTreeSpec{K: 4, LinkCapacity: topology.Gbps(1)})
	inputs := 0
	cfg := ControllerConfig{Logf: func(format string, args ...any) {
		if strings.HasPrefix(format, "netctl: recovered ") {
			inputs += args[2].(int)
		}
	}}
	b.SetBytes(int64(len(stormLog)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		c := NewController(g, topology.NewCachedRouting(r), cfg)
		if err := c.EnableDecisionLog(path); err != nil {
			b.Fatal(err)
		}
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(inputs), "ns/input")
}
