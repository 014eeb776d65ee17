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
	"strconv"
	"sync"
	"time"

	"taps/internal/core"
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

// appendGrantFrame appends to buf the grant frame of task, built straight
// from the kernel's flows: byte for byte what encodeFrame writes for the
// Envelope whose GrantMsg lists every flow not yet Done with its slices and
// path, null standing for a nil list as in encoding/json. A grant holds
// only numbers, so nothing in it needs escaping.
func appendGrantFrame(buf []byte, task int64, flows []*core.Flow) []byte {
	buf = append(buf, `{"type":"grant","grant":{"task":`...)
	buf = strconv.AppendInt(buf, task, 10)
	buf = append(buf, `,"flows":`...)
	open := false
	for _, f := range flows {
		if f.Done {
			continue
		}
		if open {
			buf = append(buf, ',')
		} else {
			buf = append(buf, '[')
			open = true
		}
		buf = append(buf, `{"id":`...)
		buf = strconv.AppendUint(buf, f.Key, 10)
		buf = append(buf, `,"src":`...)
		buf = strconv.AppendInt(buf, int64(f.Src), 10)
		buf = append(buf, `,"deadline":`...)
		buf = strconv.AppendInt(buf, f.Deadline, 10)
		buf = append(buf, `,"slices":`...)
		if ivs := f.Slices.Intervals(); len(ivs) == 0 {
			buf = append(buf, "null"...)
		} else {
			buf = append(buf, '[')
			for i, iv := range ivs {
				if i > 0 {
					buf = append(buf, ',')
				}
				buf = append(buf, `{"start":`...)
				buf = strconv.AppendInt(buf, iv.Start, 10)
				buf = append(buf, `,"end":`...)
				buf = strconv.AppendInt(buf, iv.End, 10)
				buf = append(buf, '}')
			}
			buf = append(buf, ']')
		}
		buf = append(buf, `,"path":`...)
		if f.Path == nil {
			buf = append(buf, "null"...)
		} else {
			buf = append(buf, '[')
			for i, l := range f.Path {
				if i > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendInt(buf, int64(l), 10)
			}
			buf = append(buf, ']')
		}
		buf = append(buf, '}')
	}
	if open {
		buf = append(buf, ']')
	} else {
		buf = append(buf, "null"...)
	}
	return append(buf, "}}\n"...)
}

// encodeFrame is env as one wire frame, exactly what json.Encoder.Encode
// writes: the JSON document and a newline.
func encodeFrame(env Envelope) ([]byte, error) {
	b, err := json.Marshal(env)
	if err != nil {
		return nil, fmt.Errorf("netctl: encode %s: %w", env.Type, err)
	}
	return append(b, '\n'), nil
}

// codec frames envelopes over a connection. Every outbound frame reaches
// the connection through write, whole, in one conn.Write, so several
// goroutines may send and their frames never interleave; the controller
// encodes each frame once and writes the same bytes to every agent. A
// failed write closes the connection: once a frame is torn, nothing that
// follows it can be read.
type codec struct {
	conn net.Conn
	r    *bufio.Reader
	wmu  sync.Mutex
	// onDecode, when set, receives the CPU time spent unmarshalling each
	// inbound frame (excludes time blocked waiting for bytes) and the
	// instant it ended. The controller hooks it to feed the StageDecode
	// sketch.
	onDecode func(d time.Duration, unixNano int64)
}

func newCodec(conn net.Conn) *codec {
	return &codec{conn: conn, r: bufio.NewReader(conn)}
}

func (c *codec) send(env Envelope) error {
	frame, err := encodeFrame(env)
	if err != nil {
		return err
	}
	return c.write(frame)
}

// write puts one encoded frame on the connection, closing it if the write
// fails.
func (c *codec) write(frame []byte) error {
	c.wmu.Lock()
	_, err := c.conn.Write(frame) //taps:allow lockorder wmu exists only to serialize whole frames onto this socket; no other lock is ever taken with it
	c.wmu.Unlock()
	if err != nil {
		c.conn.Close()
		return fmt.Errorf("netctl: write frame: %w", err)
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
