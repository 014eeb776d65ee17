package netctl_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"taps/internal/netctl"
	"taps/internal/simtime"
)

// recvRaw reads the next frame and returns it decoded and as the bytes
// on the wire, newline included.
func (d *wireDriver) recvRaw() (netctl.Envelope, []byte) {
	d.t.Helper()
	d.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if !d.in.Scan() {
		d.t.Fatalf("connection ended: %v", d.in.Err())
	}
	raw := append(slices.Clone(d.in.Bytes()), '\n')
	var env netctl.Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		d.t.Fatalf("bad frame %q: %v", raw, err)
	}
	return env, raw
}

// TestLedgerMatchesFreshEncoding drives a frozen-clock controller through
// accepts, rejects, preemptions and TERMs that settle tasks, then closes
// it and reopens it on its decision log. After every decision, the grants
// the agent receives are, byte for byte, appendGrantFrame over the
// kernel's flows of the accepted tasks in task order, and Snapshot lists
// those tasks. The accepted set is rebuilt from the wire alone: a task is
// in it from the decision that grants it until a reject names it.
func TestLedgerMatchesFreshEncoding(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "ctl.dlg")
	ctl, d, hosts := startStorm(t, logPath)
	accepted := map[int64][]uint64{} // task -> flows not yet TERM'd
	var rejects, preempts, settled int
	rng := rand.New(rand.NewSource(4))
	decide := func(task int64) {
		t.Helper()
		p := netctl.ProbeMsg{
			Task:     task,
			Deadline: 20*simtime.Millisecond + simtime.Time(rng.Int63n(int64(40*simtime.Millisecond))),
			Flows:    make([]netctl.FlowInfo, 1+rng.Intn(3)),
		}
		flows := make([]uint64, len(p.Flows))
		for j := range p.Flows {
			// A local flow is done on arrival and counts as delivered, which
			// gives its task a completion fraction the reject rule can
			// preempt for; a task of local flows alone settles on arrival.
			src := rng.Intn(len(hosts))
			dst := src
			if rng.Intn(4) > 0 {
				dst = (src + 1 + rng.Intn(len(hosts)-1)) % len(hosts)
			}
			p.Flows[j] = netctl.FlowInfo{ID: uint64(task)<<8 | uint64(j),
				Src: hosts[src], Dst: hosts[dst], Size: 500e3 + rng.Int63n(1500e3+1)}
			flows[j] = p.Flows[j].ID
		}
		d.send(netctl.Envelope{Type: netctl.TypeProbe, Probe: &p})
		// A decision writes the reject of the task the rule discarded, if
		// any, then one grant per accepted task.
		accepted[task] = flows
		env, raw := d.recvRaw()
		var got []byte
		granted := 0
		if env.Type == netctl.TypeReject {
			delete(accepted, env.Reject.Task)
			if env.Reject.Task == task {
				rejects++
			} else {
				preempts++
			}
		} else {
			got, granted = raw, 1
		}
		for ; granted < len(accepted); granted++ {
			env, raw := d.recvRaw()
			if env.Type != netctl.TypeGrant {
				t.Fatalf("task %d: frame %q where a grant was due", task, raw)
			}
			got = append(got, raw...)
		}
		tasks := acceptedTasks(accepted)
		if want := ctl.FreshGrantFrames(tasks); !bytes.Equal(got, want) {
			t.Fatalf("task %d: the agent received grants\n%s\nthe kernel's flows encode as\n%s", task, got, want)
		}
		if snap := ctl.Snapshot(); !slices.Equal(snap.AcceptedTasks, tasks) {
			t.Fatalf("task %d: Snapshot lists %v; the wire says %v", task, snap.AcceptedTasks, tasks)
		}
	}
	// term finishes the flows of the oldest live task: it settles, and
	// stays accepted.
	term := func() {
		for _, task := range acceptedTasks(accepted) {
			if flows := accepted[task]; len(flows) > 0 {
				for _, f := range flows {
					d.send(netctl.Envelope{Type: netctl.TypeTerm, Term: &netctl.TermMsg{Flow: f}})
				}
				accepted[task] = nil
				settled++
				return
			}
		}
	}
	task := int64(0)
	for ; task < 60; task++ {
		if task%3 == 2 {
			term()
		}
		decide(task + 1)
	}
	ctl.Close()
	ctl, d, hosts = startStorm(t, logPath)
	for ; task < 90; task++ {
		if task%3 == 2 {
			term()
		}
		decide(task + 1)
	}
	if rejects == 0 || preempts == 0 || settled == 0 {
		t.Fatalf("%d rejects, %d preemptions, %d tasks settled: the run must have each", rejects, preempts, settled)
	}
}

// acceptedTasks is the test's accepted set in task order.
func acceptedTasks(accepted map[int64][]uint64) []int64 {
	tasks := make([]int64, 0, len(accepted))
	for t := range accepted {
		tasks = append(tasks, t)
	}
	slices.Sort(tasks)
	return tasks
}
