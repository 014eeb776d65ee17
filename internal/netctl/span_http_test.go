package netctl_test

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"taps/internal/netctl"
	"taps/internal/obs/declog"
	"taps/internal/obs/span"
	"taps/internal/simtime"
)

// servedTree fetches the decision log the controller serves on /declog and
// replays it into a span tree.
func servedTree(t *testing.T, url string) *span.Tree {
	t.Helper()
	recs, truncated, err := declog.Read(strings.NewReader(getText(t, url+"/declog")))
	if err != nil || truncated {
		t.Fatalf("GET /declog: truncated=%v err=%v", truncated, err)
	}
	rp := declog.NewReplayer()
	rp.ApplyAll(recs)
	if m := rp.Meta(); m == nil || m.Source != "netctl" || len(m.LinkNames) == 0 {
		t.Fatalf("served log lacks the controller's meta record: %+v", m)
	}
	return rp.Tree()
}

// TestControllerSpanTreeAndTraceEndpoints drives an accept + a reject
// through a controller with no decision-log file and checks what it
// serves from the log it keeps in memory: /declog replays into a span tree
// whose rejected task carries an attribution chain naming the incumbent
// as holder, /trace serves valid Chrome trace_event JSON, and /why renders
// the chain as text.
func TestControllerSpanTreeAndTraceEndpoints(t *testing.T) {
	ctl, addr, g := startController(t)
	hosts := g.Hosts()
	a := dial(t, addr, "a", hosts[0])

	// Incumbent: 2 MB host0->host1 (one possible path; the first hop is
	// shared with any later flow from host0), done in ~16 virtual ms.
	if err := a.SubmitTask(1, 500*simtime.Millisecond, []netctl.FlowInfo{
		{ID: 10, Src: hosts[0], Dst: hosts[1], Size: 2_000_000},
	}); err != nil {
		t.Fatal(err)
	}
	// Newcomer with a LATER deadline (EDF plans it behind the incumbent)
	// and far more bytes than the window can carry: rejected, and the
	// incumbent's granted slices inside [now, deadline) are the holders.
	if err := a.SubmitTask(9, 600*simtime.Millisecond, []netctl.FlowInfo{
		{ID: 90, Src: hosts[0], Dst: hosts[1], Size: 500_000_000},
	}); err != netctl.ErrRejected {
		t.Fatalf("oversized task: err = %v, want ErrRejected", err)
	}

	srv := httptest.NewServer(ctl.HTTPHandler())
	defer srv.Close()
	tree := servedTree(t, srv.URL)
	rej := tree.Task(9)
	if rej == nil || rej.Outcome != span.OutcomeRejected {
		t.Fatalf("task 9 span = %+v, want rejected", rej)
	}
	if len(rej.Blocks) == 0 {
		t.Fatal("rejected task has no attribution chain")
	}
	holderFound := false
	for _, blk := range rej.Blocks {
		for _, h := range blk.Holders {
			if h.Task == 1 {
				holderFound = true
			}
		}
	}
	if !holderFound {
		t.Fatalf("attribution does not name the incumbent: %+v", rej.Blocks)
	}
	if inc := tree.Task(1); inc == nil ||
		(inc.Outcome != span.OutcomeRunning && inc.Outcome != span.OutcomeCompleted) {
		t.Fatalf("incumbent span = %+v", inc)
	}
	// Both arrivals triggered a planning pass with recorded plans.
	if len(tree.Replans) < 2 {
		t.Fatalf("replans = %d, want >= 2", len(tree.Replans))
	}

	resp, err := srv.Client().Get(srv.URL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/trace = %d", resp.StatusCode)
	}
	var tf struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &tf); err != nil {
		t.Fatalf("/trace is not valid JSON: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" || len(tf.TraceEvents) == 0 {
		t.Fatalf("trace file = unit %q, %d events", tf.DisplayTimeUnit, len(tf.TraceEvents))
	}

	resp, err = srv.Client().Get(srv.URL + "/why?task=9")
	if err != nil {
		t.Fatal(err)
	}
	why, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/why = %d", resp.StatusCode)
	}
	text := string(why)
	if !strings.Contains(text, "REJECTED") || !strings.Contains(text, "held by") ||
		!strings.Contains(text, "task 1") {
		t.Fatalf("/why lacks the causal chain:\n%s", text)
	}

	// Malformed task parameter is a client error.
	resp, err = srv.Client().Get(srv.URL + "/why?task=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("bad task = %d, want 400", resp.StatusCode)
	}
	a.WaitLocalFlows()
}
