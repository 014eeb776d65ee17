package netctl

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"taps/internal/core"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// grantOf is the GrantMsg a grant frame carries for task: its flows not
// yet Done, each with the slices and path of its committed grant. It is
// the reference appendGrantFrame is checked against.
func grantOf(task int64, flows []*core.Flow) GrantMsg {
	grant := GrantMsg{Task: task}
	for _, f := range flows {
		if f.Done {
			continue
		}
		fg := FlowGrant{ID: f.Key, Src: f.Src, Deadline: f.Deadline, Path: f.Path}
		for _, iv := range f.Slices.Intervals() {
			fg.Slices = append(fg.Slices, SliceWire{Start: iv.Start, End: iv.End})
		}
		grant.Flows = append(grant.Flows, fg)
	}
	return grant
}

// fuzzFlow is one flow of a FuzzGrantFrame input. Its byte form: a flags
// byte (bit 0 Done, bit 1 nil path, bits 2-3 the slice count, bits 4-6
// the path length), the key, src and deadline, each slice's start and end,
// and the path's links, all big-endian; bytes missing at the end read as
// zero.
type fuzzFlow struct {
	done, nilPath bool
	key           uint64
	src           int32
	deadline      int64
	slices        [][2]int64 // at most 3
	path          []int32    // at most 7
}

func (f fuzzFlow) appendTo(b []byte) []byte {
	flags := byte(len(f.slices)<<2 | len(f.path)<<4)
	if f.done {
		flags |= 1
	}
	if f.nilPath {
		flags |= 2
	}
	b = append(b, flags)
	b = binary.BigEndian.AppendUint64(b, f.key)
	b = binary.BigEndian.AppendUint32(b, uint32(f.src))
	b = binary.BigEndian.AppendUint64(b, uint64(f.deadline))
	for _, s := range f.slices {
		b = binary.BigEndian.AppendUint64(b, uint64(s[0]))
		b = binary.BigEndian.AppendUint64(b, uint64(s[1]))
	}
	for _, l := range f.path {
		b = binary.BigEndian.AppendUint32(b, uint32(l))
	}
	return b
}

func fuzzInput(flows ...fuzzFlow) []byte {
	var b []byte
	for _, f := range flows {
		b = f.appendTo(b)
	}
	return b
}

// flowsFrom decodes a FuzzGrantFrame input into kernel flows. Slices go
// through IntervalSet.Add, as the planner's do: empty ones vanish and
// overlapping ones merge.
func flowsFrom(data []byte) []*core.Flow {
	next := func(n int) uint64 {
		var v uint64
		for i := 0; i < n; i++ {
			v <<= 8
			if len(data) > 0 {
				v |= uint64(data[0])
				data = data[1:]
			}
		}
		return v
	}
	var flows []*core.Flow
	for len(data) > 0 && len(flows) < 64 {
		flags := next(1)
		f := &core.Flow{Done: flags&1 != 0}
		f.Key = next(8)
		f.Src = topology.NodeID(int32(next(4)))
		f.Deadline = int64(next(8))
		for range flags >> 2 & 3 {
			f.Slices.Add(simtime.Interval{Start: int64(next(8)), End: int64(next(8))})
		}
		n := int(flags >> 4 & 7)
		if flags&2 == 0 {
			f.Path = make(topology.Path, 0, n)
		}
		for range n {
			f.Path = append(f.Path, topology.LinkID(int32(next(4))))
		}
		flows = append(flows, f)
	}
	return flows
}

// FuzzGrantFrame checks appendGrantFrame against json.Encoder encoding the
// same grant as a GrantMsg: the bytes must be identical.
func FuzzGrantFrame(f *testing.F) {
	slice := func(start, end int64) [2]int64 { return [2]int64{start, end} }
	f.Add(int64(1), []byte(nil)) // no flows: "flows":null
	f.Add(int64(2), fuzzInput(
		fuzzFlow{done: true, key: 1, slices: [][2]int64{slice(0, 10)}, path: []int32{1, 2}},
		fuzzFlow{done: true, key: 2}))
	f.Add(int64(3), fuzzInput(
		fuzzFlow{nilPath: true, key: 3, src: 4, deadline: 100, slices: [][2]int64{slice(0, 10), slice(20, 30)}}))
	f.Add(int64(4), fuzzInput(fuzzFlow{key: 4, src: 1, deadline: 50})) // no slices, empty path
	f.Add(int64(math.MaxInt64), fuzzInput(
		fuzzFlow{key: math.MaxUint64, src: math.MaxInt32, deadline: math.MaxInt64,
			slices: [][2]int64{slice(math.MinInt64, -5), slice(-3, math.MaxInt64)}, path: []int32{math.MaxInt32, 0, -1}},
		fuzzFlow{key: 0, src: math.MinInt32, deadline: math.MinInt64, nilPath: true}))
	f.Add(int64(math.MinInt64), fuzzInput(
		fuzzFlow{done: true, key: 7},
		fuzzFlow{key: 8, src: 2, deadline: -1, slices: [][2]int64{slice(5, 5)}, path: []int32{3}},
		fuzzFlow{done: true, key: 9, nilPath: true}))
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		flows := make([]fuzzFlow, rng.Intn(6))
		for i := range flows {
			fl := fuzzFlow{done: rng.Intn(4) == 0, nilPath: rng.Intn(4) == 0, key: rng.Uint64(),
				src: rng.Int31n(64), deadline: rng.Int63n(1e8)}
			for range rng.Intn(4) {
				start := rng.Int63n(1e8)
				fl.slices = append(fl.slices, slice(start, start+rng.Int63n(1e6)))
			}
			for range rng.Intn(8) {
				fl.path = append(fl.path, rng.Int31n(128))
			}
			flows[i] = fl
		}
		f.Add(rng.Int63n(1e6), fuzzInput(flows...))
	}
	f.Fuzz(func(t *testing.T, task int64, data []byte) {
		flows := flowsFrom(data)
		grant := grantOf(task, flows)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(Envelope{Type: TypeGrant, Grant: &grant}); err != nil {
			t.Fatal(err)
		}
		// Append to a buffer that already holds bytes: they must be kept.
		prefix := []byte("prior frame\n")
		got := appendGrantFrame(append([]byte(nil), prefix...), task, flows)
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want.Bytes()) {
			t.Fatalf("appendGrantFrame wrote\n%s\njson.Encoder writes\n%s", got[len(prefix):], want.Bytes())
		}
	})
}

// broadcastFixture is a controller with accepted tasks in its kernel —
// one to three flows each, with committed slices and paths — and agents
// connected over in-memory pipes whose far ends are drained.
func broadcastFixture(tb testing.TB, agents, accepted int) *Controller {
	tb.Helper()
	g, r := topology.FatTree(topology.FatTreeSpec{K: 4, LinkCapacity: topology.Gbps(1)})
	c := NewController(g, r, ControllerConfig{})
	hosts := g.Hosts()
	rng := rand.New(rand.NewSource(1))
	for task := int64(1); task <= int64(accepted); task++ {
		for j := range 1 + rng.Intn(3) {
			f := core.Flow{FlowReq: core.FlowReq{Key: uint64(task)<<8 | uint64(j),
				Src: hosts[rng.Intn(len(hosts))], Deadline: 20*simtime.Millisecond + rng.Int63n(40*simtime.Millisecond)},
				Task: task}
			for range 1 + rng.Intn(3) {
				start := rng.Int63n(60 * simtime.Millisecond)
				f.Slices.Add(simtime.Interval{Start: start, End: start + rng.Int63n(8*simtime.Millisecond) + 1})
			}
			for range 2 + 2*rng.Intn(3) {
				f.Path = append(f.Path, topology.LinkID(rng.Intn(g.NumLinks())))
			}
			c.kernel.Restore(f)
		}
		c.accepted[task] = true
	}
	for i := range agents {
		near, far := net.Pipe()
		c.agents[newCodec(near)] = HelloMsg{Agent: fmt.Sprint("agent", i), Host: hosts[i%len(hosts)]}
		go func() {
			buf := make([]byte, 64<<10)
			for {
				if _, err := far.Read(buf); err != nil {
					return
				}
			}
		}()
		tb.Cleanup(func() {
			near.Close()
			far.Close()
		})
	}
	return c
}

// broadcastGrants runs one decision's grant broadcast.
func (c *Controller) broadcastGrants() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.broadcastGrantsLocked()
}

// TestBroadcastAllocsIndependentOfAgents: a decision's grants are encoded
// once, whatever the number of agents they are written to.
func TestBroadcastAllocsIndependentOfAgents(t *testing.T) {
	allocs := func(agents int) float64 {
		c := broadcastFixture(t, agents, 32)
		return testing.AllocsPerRun(20, c.broadcastGrants)
	}
	if one, many := allocs(1), allocs(64); one != many {
		t.Fatalf("one decision's broadcast allocates %v times to 1 agent, %v times to 64", one, many)
	}
}

func BenchmarkBroadcastGrants(b *testing.B) {
	for _, agents := range []int{1, 16} {
		for _, accepted := range []int{32, 750} {
			b.Run(fmt.Sprintf("agents=%d/accepted=%d", agents, accepted), func(b *testing.B) {
				c := broadcastFixture(b, agents, accepted)
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					c.broadcastGrants()
				}
			})
		}
	}
}

// pendingDecisions counts the submissions waiting for a decision.
func (a *Agent) pendingDecisions() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.decisions)
}

// TestSubmitTaskForgetsUnsentProbe: a probe that cannot be sent leaves no
// submission waiting for its decision.
func TestSubmitTaskForgetsUnsentProbe(t *testing.T) {
	g, r := topology.FatTree(topology.FatTreeSpec{K: 4, LinkCapacity: topology.Gbps(1)})
	ctl := NewController(g, r, ControllerConfig{})
	served := make(chan error, 1)
	go func() { served <- ctl.Serve("127.0.0.1:0") }()
	for deadline := time.Now().Add(2 * time.Second); ctl.Addr() == ""; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("controller did not bind")
		}
	}
	defer func() {
		ctl.Close()
		if err := <-served; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	hosts := g.Hosts()
	a, err := Dial(ctl.Addr(), "a", hosts[0])
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.codec.close()
	if err := a.SubmitTask(1, simtime.Second, []FlowInfo{{ID: 1, Src: hosts[0], Dst: hosts[1], Size: 1e6}}); err == nil {
		t.Fatal("submitted a task over a closed connection")
	}
	if n := a.pendingDecisions(); n != 0 {
		t.Fatalf("%d submissions still wait for a decision", n)
	}
}
