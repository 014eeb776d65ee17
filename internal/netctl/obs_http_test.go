package netctl_test

import (
	"bytes"
	"io"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"taps/internal/netctl"
	"taps/internal/obs"
	"taps/internal/obs/declog"
	"taps/internal/obs/span"
	"taps/internal/simtime"
)

func TestHTTPMetricsEndpoint(t *testing.T) {
	ctl, addr, g := startController(t)
	hosts := g.Hosts()
	a := dial(t, addr, "a", hosts[0])
	if err := a.SubmitTask(1, 500*simtime.Millisecond, []netctl.FlowInfo{
		{ID: 10, Src: hosts[0], Dst: hosts[7], Size: 2_000_000},
	}); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(ctl.HTTPHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`taps_events_total{kind="task_admitted"} 1`,
		`taps_events_total{kind="replan"} 1`,
		"taps_replan_latency_seconds_count 1",
		`taps_replan_latency_seconds_bucket{le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in exposition:\n%s", want, text)
		}
	}
	// Every sample line must parse as "name{labels} value" with a numeric
	// value, and histogram buckets must be cumulative.
	var lastCum uint64
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed line %q", line)
		}
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			t.Fatalf("non-numeric value in %q", line)
		}
		if strings.HasPrefix(line, "taps_replan_latency_seconds_bucket") {
			n, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			if n < lastCum {
				t.Fatalf("non-cumulative bucket at %q", line)
			}
			lastCum = n
		}
	}
	a.WaitLocalFlows()
}

// TestHTTPDeclogPaging pages through the decision log the way a client
// tails it: GET /declog?off=N returns the bytes from N on, so a reader that
// resumes at the length it already holds sees every record exactly once,
// and the records it decodes tally to the controller's own counters.
func TestHTTPDeclogPaging(t *testing.T) {
	ctl, addr, g := startControllerWithLog(t, filepath.Join(t.TempDir(), "ctl.dlg"))
	hosts := g.Hosts()
	a := dial(t, addr, "a", hosts[0])
	srv := httptest.NewServer(ctl.HTTPHandler())
	defer srv.Close()
	get := func(query string, wantStatus int) []byte {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/declog?" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("/declog?%s = %d, want %d", query, resp.StatusCode, wantStatus)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var log []byte
	for i := 0; i < 3; i++ {
		if err := a.SubmitTask(int64(i+1), 500*simtime.Millisecond, []netctl.FlowInfo{
			{ID: uint64(10 + i), Src: hosts[0], Dst: hosts[5+i%3], Size: 100_000},
		}); err != nil {
			t.Fatal(err)
		}
		page := get("off="+strconv.Itoa(len(log)), 200)
		if len(page) == 0 {
			t.Fatalf("task %d: empty page at off=%d", i+1, len(log))
		}
		log = append(log, page...)
	}
	// Once every flow has reported its end, the log stops growing: one
	// more page catches the tail, and the pages add up to the whole log.
	a.WaitLocalFlows()
	for deadline := time.Now().Add(5 * time.Second); ctl.Snapshot().PendingFlows != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("flows never drained")
		}
	}
	log = append(log, get("off="+strconv.Itoa(len(log)), 200)...)
	if whole := get("", 200); !bytes.Equal(whole, log) {
		t.Fatalf("pages add up to %d bytes, the log has %d", len(log), len(whole))
	}
	recs, truncated, err := declog.Read(bytes.NewReader(log))
	if err != nil || truncated {
		t.Fatalf("read paged log: truncated=%v err=%v", truncated, err)
	}
	replayed := obs.NewRecorder()
	sink := declog.Sink{Obs: replayed}
	for i := range recs {
		sink.Emit(&recs[i])
	}
	live := ctl.Recorder().Summarize()
	if got := replayed.Summarize(); got.Admitted != 3 || got.Replans != 3 || got.Missed != live.Missed ||
		got.Admitted != live.Admitted || got.Replans != live.Replans || got.Rejected != live.Rejected {
		t.Fatalf("paged log tallies %+v, controller %+v", got, live)
	}
	// A cursor past the end is an empty page, not an error.
	if page := get("off="+strconv.Itoa(len(log)+500), 200); len(page) != 0 {
		t.Fatalf("cursor past the end returned %d bytes", len(page))
	}
	get("off=banana", 400)
	get("off=-1", 400)
	get("off=9223372036854775808", 400) // past MaxInt64: no offset, not a failed Seek
}

func TestHTTPDebugEndpoints(t *testing.T) {
	ctl, _, _ := startController(t)
	srv := httptest.NewServer(ctl.HTTPHandler())
	defer srv.Close()
	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s = %d", path, resp.StatusCode)
		}
	}
}

func TestHTTPRejectionEventRecorded(t *testing.T) {
	ctl, addr, g := startController(t)
	hosts := g.Hosts()
	a := dial(t, addr, "a", hosts[0])
	_ = a.SubmitTask(9, 1*simtime.Millisecond, []netctl.FlowInfo{
		{ID: 90, Src: hosts[0], Dst: hosts[7], Size: 500_000_000},
	})
	if n := ctl.Recorder().Count(obs.KindTaskRejected); n != 1 {
		t.Fatalf("rejected count = %d", n)
	}
	srv := httptest.NewServer(ctl.HTTPHandler())
	defer srv.Close()
	if ts := servedTree(t, srv.URL).Tasks; len(ts) != 1 || ts[0].Task != 9 ||
		ts[0].Outcome != span.OutcomeRejected || ts[0].Reason != "reject rule" {
		t.Fatalf("task spans = %+v, want task 9 rejected by the reject rule", ts)
	}
}
