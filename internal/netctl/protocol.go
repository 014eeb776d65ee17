// Package netctl is a deployable implementation of the TAPS control plane
// over real TCP sockets: a controller daemon that runs the centralized
// algorithm (core.Planner + the §IV-B reject rule) against a configured
// topology, and host agents that submit tasks, receive pre-allocated time
// slices, execute them on a shared virtual clock, and report completions —
// the Fig. 4 message exchange as an actual networked system rather than a
// simulation.
//
// The wire protocol is newline-delimited JSON. Times on the wire are
// virtual microseconds since the session epoch the controller announces in
// its Welcome; the Speedup factor maps virtual time to wall-clock time so
// integration tests can compress long schedules into milliseconds.
//
// The data plane is intentionally thin: agents do not move real bytes,
// they execute the controller's schedule (a sender is busy exactly during
// its granted slices, which the controller guarantees are exclusive per
// link). Byte-accurate forwarding lives in internal/sim and internal/sdn;
// this package exercises discovery, admission, granting, re-planning, and
// termination over real connections, concurrency and all.
package netctl

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"taps/internal/obs"
	"taps/internal/simtime"
	"taps/internal/topology"
)

// MsgType discriminates wire messages.
type MsgType string

// Wire message types.
const (
	TypeHello   MsgType = "hello"   // agent -> controller: register
	TypeWelcome MsgType = "welcome" // controller -> agent: epoch + speedup
	TypeProbe   MsgType = "probe"   // agent -> controller: task info (Fig. 4 step 2)
	TypeGrant   MsgType = "grant"   // controller -> agents: slices (Fig. 4 step 4B)
	TypeReject  MsgType = "reject"  // controller -> agents: discard task (step 5)
	TypeTerm    MsgType = "term"    // agent -> controller: flow finished
)

// Envelope is the single wire frame; exactly one payload field matches
// Type.
type Envelope struct {
	Type    MsgType     `json:"type"`
	Hello   *HelloMsg   `json:"hello,omitempty"`
	Welcome *WelcomeMsg `json:"welcome,omitempty"`
	Probe   *ProbeMsg   `json:"probe,omitempty"`
	Grant   *GrantMsg   `json:"grant,omitempty"`
	Reject  *RejectMsg  `json:"reject,omitempty"`
	Term    *TermMsg    `json:"term,omitempty"`
}

// HelloMsg registers an agent and the host it runs on.
type HelloMsg struct {
	Agent string          `json:"agent"`
	Host  topology.NodeID `json:"host"`
}

// WelcomeMsg anchors the shared virtual clock.
type WelcomeMsg struct {
	EpochUnixNano int64 `json:"epoch_unix_nano"`
	// Speedup is virtual µs per real µs (e.g. 10 runs schedules 10x
	// faster than real time).
	Speedup float64 `json:"speedup"`
}

// FlowInfo describes one flow of a probed task.
type FlowInfo struct {
	ID   uint64          `json:"id"`
	Src  topology.NodeID `json:"src"`
	Dst  topology.NodeID `json:"dst"`
	Size int64           `json:"size"`
}

// ProbeMsg announces a task (all flows share the absolute virtual
// deadline).
type ProbeMsg struct {
	Task     int64        `json:"task"`
	Deadline simtime.Time `json:"deadline"`
	Flows    []FlowInfo   `json:"flows"`
}

// SliceWire is one granted transmission slice [Start, End) in virtual µs.
type SliceWire struct {
	Start simtime.Time `json:"start"`
	End   simtime.Time `json:"end"`
}

// FlowGrant carries one flow's schedule.
type FlowGrant struct {
	ID       uint64            `json:"id"`
	Src      topology.NodeID   `json:"src"`
	Deadline simtime.Time      `json:"deadline"`
	Slices   []SliceWire       `json:"slices"`
	Path     []topology.LinkID `json:"path"`
}

// GrantMsg accepts a task; it is broadcast so every sending host learns
// its flows' slices. Re-plans re-broadcast grants with updated slices.
type GrantMsg struct {
	Task  int64       `json:"task"`
	Flows []FlowGrant `json:"flows"`
}

// RejectMsg discards a task.
type RejectMsg struct {
	Task   int64  `json:"task"`
	Reason string `json:"reason"`
}

// TermMsg reports a completed flow.
type TermMsg struct {
	Flow   uint64       `json:"flow"`
	Finish simtime.Time `json:"finish"`
}

// codec frames envelopes over a connection; writes are serialized so
// multiple goroutines may send.
type codec struct {
	conn net.Conn
	r    *bufio.Reader
	wmu  sync.Mutex
	enc  *json.Encoder
	// onDecode, when set, receives the CPU time spent unmarshalling each
	// inbound frame (excludes time blocked waiting for bytes) and the
	// instant it ended. The controller hooks it to feed the StageDecode
	// sketch.
	onDecode func(d time.Duration, unixNano int64)
}

func newCodec(conn net.Conn) *codec {
	return &codec{conn: conn, r: bufio.NewReader(conn), enc: json.NewEncoder(conn)}
}

func (c *codec) send(env Envelope) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.enc.Encode(env); err != nil { //taps:allow lockorder wmu exists only to serialize whole frames onto this socket; no other lock is ever taken with it
		return fmt.Errorf("netctl: send %s: %w", env.Type, err)
	}
	return nil
}

func (c *codec) recv() (Envelope, error) {
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		return Envelope{}, err
	}
	var sw obs.Stopwatch
	if c.onDecode != nil {
		sw = obs.StartStopwatch()
	}
	var env Envelope
	err = json.Unmarshal(line, &env)
	if c.onDecode != nil {
		c.onDecode(sw.Lap())
	}
	if err != nil {
		return Envelope{}, fmt.Errorf("netctl: decode frame: %w", err)
	}
	return env, nil
}

func (c *codec) close() error { return c.conn.Close() }
