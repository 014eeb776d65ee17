// Package declog is the flight recorder: a compact append-only binary
// decision log, and the one path (Sink) by which the decision kernel, the
// simulator and the networked controller report what they decide — to
// the log and to the decision counters. Every record is one controller
// decision or lifecycle event — task arrival, planning pass (slice
// grants), admit, reject, preempt, attribution chain, task/flow terminal,
// transmission segments, link failure, and the plan-state commit markers
// — stamped with simulated time and framed with a CRC so a torn tail (a
// crash mid-write) is detected and truncated instead of poisoning
// recovery.
//
// The log is the only record of a run: the Replayer reconstructs, from the
// records alone, (a) the span tree every trace export and causal
// explanation is rendered from — no tree is kept live — and (b) the
// controller's plan state: per-flow slice grants, per-link occupancy, and
// the in-flight flow table. A restarted netctl controller recovers its
// world from the log without re-contacting agents, and `tapsctl -replay`
// answers time-travel queries against any simulated instant.
//
// Records are deterministic byte streams: encoding walks slices in
// recorded order, never maps, and stores only simulated time — the
// package passes the tapslint maporder and wallclock analyzers with no
// suppressions. Wall-clock concerns (fsync latency) live in internal/obs.
//
// File format:
//
//	magic "TAPSDLG1"
//	frame*   frame = u32le payload length | u32le CRC-32C of payload | payload
//
// Payloads are varint-packed (see encode/decode below). A frame whose
// length field runs past EOF, whose CRC mismatches, or whose payload
// fails to decode marks the torn tail: everything before it is valid.
package declog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"taps/internal/obs/span"
	"taps/internal/simtime"
)

// Magic identifies a decision log file (8 bytes, version in the suffix).
const Magic = "TAPSDLG1"

// Kind classifies one record.
type Kind uint8

// Record kinds. The taxonomy mirrors the §IV-B decisions plus the
// lifecycle events the span tree needs for faithful reconstruction.
const (
	// KindMeta is the first record of a log: the identity of the writing
	// controller (epoch, speedup for real-time controllers; zero for
	// simulated runs) and the topology's link-name table, so replay needs
	// no out-of-band topology.
	KindMeta Kind = iota + 1
	// KindTask: a task arrived with its flows (IDs, endpoints, sizes,
	// human route labels). Time is the arrival instant.
	KindTask
	// KindReplan: one planning pass — the slice-grant batch. Carries the
	// full span.ReplanSpan: per-flow candidates, winning path, granted
	// slice windows, planned finish.
	KindReplan
	// KindAdmit: the task was accepted.
	KindAdmit
	// KindReject: the task was discarded before admission; the replayer
	// drops its flows from the in-flight table.
	KindReject
	// KindPreempt: the admitted Task was sacrificed for newcomer By; the
	// replayer drops the victim's flows and marks By accepted.
	KindPreempt
	// KindAttr: the attribution chain of a rejection or preemption (the
	// blocking links and their holders).
	KindAttr
	// KindTaskEnd: a task reached its terminal outcome.
	KindTaskEnd
	// KindFlowEnd: a flow ended — the slice-revoke event: whatever grant
	// windows lie past Time are void. Time is the completion or kill
	// instant.
	KindFlowEnd
	// KindSegments: a flow's recorded transmission segments (bulk import
	// at the end of a simulated run).
	KindSegments
	// KindLinkDown: an injected or observed link failure.
	KindLinkDown
	// KindCommit: the preceding KindReplan's plans were installed as the
	// controller's plan state, whole: the plan state is the pass alone —
	// per-flow slices for every routed flow (missed ones included), per-link
	// occupancy as the union of those grants along each winning path, GC'd
	// up to Time. A flow in flight that the pass left out holds nothing
	// afterwards.
	KindCommit

	kindCount
)

var kindNames = [kindCount]string{
	"", "meta", "task", "replan", "admit", "reject", "preempt",
	"attr", "task_end", "flow_end", "segments", "link_down", "commit",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && k > 0 {
		return kindNames[k]
	}
	return "kind(?)"
}

// ErrCommitMode is the decode error of a commit record whose mode byte is
// not 0, the whole-pass commit above and the only one this build writes.
// Other controllers wrote 1 (the pass merged into the standing plan) and 2
// (install-as-you-go "update"); their plan state cannot be replayed
// faithfully, so such a log is refused at that record.
var ErrCommitMode = errors.New("declog: unknown commit mode")

// Meta is the log's identity record.
type Meta struct {
	// Source names the writer ("tapsim", "netctl").
	Source string
	// EpochUnixNano anchors a real-time controller's virtual clock: a
	// recovered controller restores its epoch from here so virtual time
	// continues monotonically. Zero for simulated runs.
	EpochUnixNano int64
	// Speedup is the virtual-µs-per-real-µs factor (netctl); zero for
	// simulated runs.
	Speedup float64
	// LinkNames maps link ID -> human name, so -why and -trace need no
	// topology beside the log.
	LinkNames []string
}

// FlowInfo describes one flow inside a KindTask record.
type FlowInfo struct {
	ID    int64
	Src   int32
	Dst   int32
	Size  int64
	Label string // human route label, e.g. "h3->h17"
}

// Record is one decoded log record. Which fields are meaningful depends
// on Kind (see the kind constants); unused fields stay zero.
type Record struct {
	Kind Kind
	Time simtime.Time // simulated instant of the event

	Task     int64            // subject task (KindTask..KindTaskEnd)
	By       int64            // preempting newcomer (KindPreempt)
	Flow     int64            // subject flow (KindFlowEnd, KindSegments)
	Link     int32            // subject link (KindLinkDown)
	Deadline simtime.Time     // absolute deadline (KindTask)
	Done     bool             // all bytes delivered (KindFlowEnd)
	OnTime   bool             // finished within deadline (KindFlowEnd)
	Outcome  span.Outcome     // terminal outcome (KindTaskEnd)
	Fraction float64          // completion fraction (KindPreempt)
	Reason   string           // decision reason / kill note
	Meta     *Meta            // KindMeta
	Flows    []FlowInfo       // KindTask
	Replan   *span.ReplanSpan // KindReplan (Seq reassigned on replay)
	Blocks   []span.LinkBlock // KindAttr
	Segments []span.Segment   // KindSegments
}

// encodeRecord appends the record's payload (kind byte + varint fields)
// to b. The encoding walks only slices, in recorded order, so identical
// records always produce identical bytes.
func encodeRecord(b []byte, r *Record) []byte {
	b = append(b, byte(r.Kind))
	b = binary.AppendVarint(b, r.Time)
	switch r.Kind {
	case KindMeta:
		m := r.Meta
		b = appendString(b, m.Source)
		b = binary.AppendVarint(b, m.EpochUnixNano)
		b = appendFloat(b, m.Speedup)
		b = binary.AppendUvarint(b, uint64(len(m.LinkNames)))
		for _, n := range m.LinkNames {
			b = appendString(b, n)
		}
	case KindTask:
		b = binary.AppendVarint(b, r.Task)
		b = binary.AppendVarint(b, r.Deadline)
		b = binary.AppendUvarint(b, uint64(len(r.Flows)))
		for _, f := range r.Flows {
			b = binary.AppendVarint(b, f.ID)
			b = binary.AppendVarint(b, int64(f.Src))
			b = binary.AppendVarint(b, int64(f.Dst))
			b = binary.AppendVarint(b, f.Size)
			b = appendString(b, f.Label)
		}
	case KindReplan:
		rs := r.Replan
		b = append(b, byte(rs.Kind))
		b = binary.AppendVarint(b, rs.Trigger)
		b = binary.AppendVarint(b, int64(rs.Flows))
		b = binary.AppendVarint(b, rs.PathsTried)
		b = binary.AppendUvarint(b, uint64(len(rs.Plans)))
		for i := range rs.Plans {
			b = encodePlan(b, &rs.Plans[i])
		}
	case KindAdmit:
		b = binary.AppendVarint(b, r.Task)
		b = append(b, 0) // flag byte, reserved
	case KindReject:
		b = binary.AppendVarint(b, r.Task)
		b = appendString(b, r.Reason)
	case KindPreempt:
		b = binary.AppendVarint(b, r.Task)
		b = binary.AppendVarint(b, r.By)
		b = appendFloat(b, r.Fraction)
		b = appendString(b, r.Reason)
	case KindAttr:
		b = binary.AppendVarint(b, r.Task)
		b = binary.AppendUvarint(b, uint64(len(r.Blocks)))
		for i := range r.Blocks {
			blk := &r.Blocks[i]
			b = binary.AppendVarint(b, int64(blk.Link))
			b = binary.AppendVarint(b, blk.Window.Start)
			b = binary.AppendVarint(b, blk.Window.End)
			b = binary.AppendVarint(b, blk.Busy)
			b = binary.AppendUvarint(b, uint64(len(blk.Holders)))
			for _, h := range blk.Holders {
				b = binary.AppendVarint(b, h.Task)
				b = binary.AppendVarint(b, h.Busy)
			}
		}
	case KindTaskEnd:
		b = binary.AppendVarint(b, r.Task)
		b = append(b, byte(r.Outcome))
		b = appendString(b, r.Reason)
	case KindFlowEnd:
		b = binary.AppendVarint(b, r.Flow)
		b = appendBool(b, r.Done)
		b = appendBool(b, r.OnTime)
		b = appendString(b, r.Reason)
	case KindSegments:
		b = binary.AppendVarint(b, r.Flow)
		b = binary.AppendUvarint(b, uint64(len(r.Segments)))
		for _, s := range r.Segments {
			b = binary.AppendVarint(b, s.Interval.Start)
			b = binary.AppendVarint(b, s.Interval.End)
			b = appendFloat(b, s.Rate)
		}
	case KindLinkDown:
		b = binary.AppendVarint(b, int64(r.Link))
	case KindCommit:
		b = append(b, 0) // mode byte, see ErrCommitMode
	}
	return b
}

// encodePlan appends one PlanSpan. A nil Path (unroutable flow) is
// distinguished from an empty one so replay reproduces the span tree
// exactly.
func encodePlan(b []byte, p *span.PlanSpan) []byte {
	b = binary.AppendVarint(b, p.Flow)
	b = binary.AppendVarint(b, p.Task)
	b = binary.AppendVarint(b, int64(p.Candidates))
	b = binary.AppendVarint(b, int64(p.PathIndex))
	b = binary.AppendVarint(b, p.Finish)
	b = binary.AppendVarint(b, p.Deadline)
	b = appendBool(b, p.Missed)
	if p.Path == nil {
		b = appendBool(b, false)
		return b
	}
	b = appendBool(b, true)
	b = binary.AppendUvarint(b, uint64(len(p.Path)))
	for _, l := range p.Path {
		b = binary.AppendVarint(b, int64(l))
	}
	b = binary.AppendUvarint(b, uint64(len(p.Slices)))
	for _, iv := range p.Slices {
		b = binary.AppendVarint(b, iv.Start)
		b = binary.AppendVarint(b, iv.End)
	}
	return b
}

// decodeRecord parses one payload back into a Record. Any malformed
// payload is an error — the reader treats it as the torn tail.
func decodeRecord(payload []byte) (Record, error) {
	d := dec{b: payload}
	var r Record
	r.Kind = Kind(d.byte())
	r.Time = d.varint()
	switch r.Kind {
	case KindMeta:
		m := &Meta{}
		m.Source = d.str()
		m.EpochUnixNano = d.varint()
		m.Speedup = d.float()
		if n := d.count(); n > 0 {
			m.LinkNames = make([]string, n)
			for i := range m.LinkNames {
				m.LinkNames[i] = d.str()
			}
		}
		r.Meta = m
	case KindTask:
		r.Task = d.varint()
		r.Deadline = d.varint()
		if n := d.count(); n > 0 {
			r.Flows = make([]FlowInfo, n)
			for i := range r.Flows {
				f := &r.Flows[i]
				f.ID = d.varint()
				f.Src = int32(d.varint())
				f.Dst = int32(d.varint())
				f.Size = d.varint()
				f.Label = d.str()
			}
		}
	case KindReplan:
		rs := &span.ReplanSpan{Time: r.Time}
		rs.Kind = span.ReplanKind(d.byte())
		rs.Trigger = d.varint()
		rs.Flows = int(d.varint())
		rs.PathsTried = d.varint()
		if rs.Kind == 5 {
			// An older controller's incremental pass: kind 5, then how
			// many flows it re-planned. Its plans are those of an arrival
			// pass over the same flows, so that is what it is read as.
			d.varint()
			rs.Kind = span.ReplanArrival
		}
		n := d.count()
		rs.Plans = make([]span.PlanSpan, n)
		for i := range rs.Plans {
			decodePlan(&d, &rs.Plans[i])
		}
		r.Replan = rs
	case KindAdmit:
		r.Task = d.varint()
		d.byte() // flag byte: reserved, not always 0 in other builds' logs
	case KindReject:
		r.Task = d.varint()
		r.Reason = d.str()
	case KindPreempt:
		r.Task = d.varint()
		r.By = d.varint()
		r.Fraction = d.float()
		r.Reason = d.str()
	case KindAttr:
		r.Task = d.varint()
		if n := d.count(); n > 0 {
			r.Blocks = make([]span.LinkBlock, n)
			for i := range r.Blocks {
				blk := &r.Blocks[i]
				blk.Link = int32(d.varint())
				blk.Window.Start = d.varint()
				blk.Window.End = d.varint()
				blk.Busy = d.varint()
				if h := d.count(); h > 0 {
					blk.Holders = make([]span.Holder, h)
					for j := range blk.Holders {
						blk.Holders[j].Task = d.varint()
						blk.Holders[j].Busy = d.varint()
					}
				}
			}
		}
	case KindTaskEnd:
		r.Task = d.varint()
		r.Outcome = span.Outcome(d.byte())
		r.Reason = d.str()
	case KindFlowEnd:
		r.Flow = d.varint()
		r.Done = d.bool()
		r.OnTime = d.bool()
		r.Reason = d.str()
	case KindSegments:
		r.Flow = d.varint()
		if n := d.count(); n > 0 {
			r.Segments = make([]span.Segment, n)
			for i := range r.Segments {
				s := &r.Segments[i]
				s.Interval.Start = d.varint()
				s.Interval.End = d.varint()
				s.Rate = d.float()
			}
		}
	case KindLinkDown:
		r.Link = int32(d.varint())
	case KindCommit:
		if mode := d.byte(); mode != 0 {
			return Record{}, fmt.Errorf("%w %d", ErrCommitMode, mode)
		}
	default: //taps:allow kindexhaustive corrupt-input guard: the decoder must reject kinds from the future, not switch over the compiled set
		return Record{}, fmt.Errorf("declog: unknown record kind %d", r.Kind)
	}
	if d.err != nil {
		return Record{}, d.err
	}
	if len(d.b) != 0 {
		return Record{}, fmt.Errorf("declog: %d trailing bytes in %s record", len(d.b), r.Kind)
	}
	return r, nil
}

func decodePlan(d *dec, p *span.PlanSpan) {
	p.Flow = d.varint()
	p.Task = d.varint()
	p.Candidates = int(d.varint())
	p.PathIndex = int(d.varint())
	p.Finish = d.varint()
	p.Deadline = d.varint()
	p.Missed = d.bool()
	if !d.bool() {
		return
	}
	n := d.count()
	p.Path = make([]int32, n)
	for i := range p.Path {
		p.Path[i] = int32(d.varint())
	}
	n = d.count()
	p.Slices = make([]simtime.Interval, n)
	for i := range p.Slices {
		p.Slices[i].Start = d.varint()
		p.Slices[i].End = d.varint()
	}
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// dec is a cursor over one payload; the first malformed read latches err
// and every subsequent read returns zero values.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("declog: truncated or corrupt %s", what)
	}
}

func (d *dec) byte() byte {
	if d.err != nil || len(d.b) < 1 {
		d.fail("byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads an element count. Every element takes at least one byte, so
// a count past the bytes left is corrupt: failing it here keeps a bad
// length field from driving an allocation the payload cannot fill.
func (d *dec) count() int {
	v := d.uvarint()
	if v > uint64(len(d.b)) {
		d.fail("count")
		return 0
	}
	return int(v)
}

func (d *dec) str() string {
	n := d.count()
	if d.err != nil {
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *dec) float() float64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail("float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *dec) bool() bool { return d.byte() != 0 }
