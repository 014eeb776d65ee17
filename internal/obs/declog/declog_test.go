package declog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"taps/internal/obs"
	"taps/internal/obs/span"
	"taps/internal/simtime"
)

// sampleRecords exercises every record kind with non-trivial payloads:
// negative IDs, nil-vs-empty paths, empty strings, multi-element nesting.
func sampleRecords() []Record {
	return []Record{
		{Kind: KindMeta, Meta: &Meta{
			Source: "test", EpochUnixNano: 1700000000123456789, Speedup: 12.5,
			LinkNames: []string{"h0-t0", "t0-a0", ""},
		}},
		{Kind: KindTask, Time: 100, Task: 7, Deadline: 5000, Flows: []FlowInfo{
			{ID: 70, Src: 3, Dst: 17, Size: 1 << 30, Label: "h3->h17"},
			{ID: 71, Src: 4, Dst: 18, Size: 0, Label: ""},
		}},
		{Kind: KindReplan, Time: 100, Replan: &span.ReplanSpan{
			Time: 100, Kind: span.ReplanArrival, Trigger: 7, Flows: 2, PathsTried: 9,
			Plans: []span.PlanSpan{
				{Flow: 70, Task: 7, Candidates: 4, PathIndex: 1,
					Path:   []int32{0, 5, 9},
					Slices: []simtime.Interval{{Start: 100, End: 400}, {Start: 900, End: 1000}},
					Finish: 1000, Deadline: 5000},
				{Flow: 71, Task: 7, Candidates: 3, PathIndex: -1,
					Finish: simtime.Infinity, Deadline: 5000, Missed: true},
				{Flow: 72, Task: 7, Candidates: 1, PathIndex: 0,
					Path: []int32{}, Slices: []simtime.Interval{}, Finish: 200, Deadline: 5000},
			},
		}},
		{Kind: KindAdmit, Time: 101, Task: 7},
		{Kind: KindReject, Time: 205, Task: 8, Reason: "taps: task discarded by reject rule"},
		{Kind: KindPreempt, Time: 300, Task: 7, By: 9, Fraction: 0.375, Reason: "preempted"},
		{Kind: KindAttr, Time: 300, Task: 7, Blocks: []span.LinkBlock{
			{Link: 5, Window: simtime.Interval{Start: 300, End: 5000}, Busy: 4100,
				Holders: []span.Holder{{Task: 9, Busy: 4000}, {Task: 2, Busy: 100}}},
			{Link: 9, Window: simtime.Interval{Start: 300, End: 5000}, Busy: 0},
		}},
		{Kind: KindTaskEnd, Time: 300, Task: 7, Outcome: span.OutcomePreempted, Reason: "preempted by task 9"},
		{Kind: KindFlowEnd, Time: 990, Flow: 70, Done: true, OnTime: true},
		{Kind: KindSegments, Time: 990, Flow: 70, Segments: []span.Segment{
			{Interval: simtime.Interval{Start: 100, End: 400}, Rate: 125},
			{Interval: simtime.Interval{Start: 900, End: 990}, Rate: 62.5},
		}},
		{Kind: KindLinkDown, Time: 1500, Link: 9},
		{Kind: KindCommit, Time: 1500},
	}
}

func writeSample(t *testing.T, path string, opts Options) []Record {
	t.Helper()
	w, err := Create(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for i := range want {
		if err := w.Append(&want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

func TestRoundTripAllKinds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.dlg")
	want := writeSample(t, path, Options{})
	got, truncated, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Fatal("clean log reported truncated")
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("record %d (%s):\n got %+v\nwant %+v", i, want[i].Kind, got[i], want[i])
		}
	}
	// The nil-vs-empty Path distinction must survive the trip: plan 1 was
	// unroutable (nil), plan 2 routed over an empty path.
	plans := got[2].Replan.Plans
	if plans[1].Path != nil {
		t.Errorf("unroutable plan decoded with non-nil path %v", plans[1].Path)
	}
	if plans[2].Path == nil {
		t.Errorf("routed empty path decoded as nil")
	}
}

func TestTornTailDetectionAndRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.dlg")
	want := writeSample(t, path, Options{})
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A crash mid-append leaves a partial frame: header + half a payload.
	torn := append(append([]byte{}, clean...), 0xFF, 0x00, 0x00, 0x00, 0xAA, 0xBB, 0xCC, 0xDD, 0x01, 0x02)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	got, truncated, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !truncated {
		t.Fatal("torn tail not reported")
	}
	if len(got) != len(want) {
		t.Fatalf("torn log decoded %d records, want the %d valid ones", len(got), len(want))
	}

	// OpenAppend physically truncates the tail, counts it, and appends
	// cleanly after the last valid frame.
	health := obs.NewRecorder()
	w, recovered, err := OpenAppend(path, Options{Health: health})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != len(want) {
		t.Fatalf("OpenAppend recovered %d records, want %d", len(recovered), len(want))
	}
	if ds := health.DeclogStats(); ds.Truncations != 1 {
		t.Fatalf("truncations counter = %d, want 1", ds.Truncations)
	}
	w.Append(&Record{Kind: KindLinkDown, Time: 2000, Link: 3})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, truncated, err = ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if truncated {
		t.Fatal("recovered log still reports a torn tail")
	}
	if len(got) != len(want)+1 {
		t.Fatalf("after recovery+append decoded %d records, want %d", len(got), len(want)+1)
	}
	last := got[len(got)-1]
	if last.Kind != KindLinkDown || last.Link != 3 || last.Time != 2000 {
		t.Fatalf("appended record mangled: %+v", last)
	}
}

func TestCRCCorruptionStopsAtBadFrame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.dlg")
	want := writeSample(t, path, Options{})
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the middle of the file: every frame before
	// it must survive, everything from it on is the torn tail.
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, truncated, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !truncated {
		t.Fatal("corruption not reported")
	}
	if len(got) >= len(want) {
		t.Fatalf("decoded %d records from a mid-file corruption, want fewer than %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("pre-corruption record %d damaged:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

func TestBadMagicIsHardError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not.dlg")
	if err := os.WriteFile(path, []byte("definitely not a decision log"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFile(path); err == nil {
		t.Fatal("ReadFile accepted a non-log file")
	}
	if _, _, err := OpenAppend(path, Options{}); err == nil {
		t.Fatal("OpenAppend accepted a non-log file")
	}
}

func TestOpenAppendFreshFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.dlg")
	w, recovered, err := OpenAppend(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recovered) != 0 {
		t.Fatalf("fresh log recovered %d records", len(recovered))
	}
	w.Append(&Record{Kind: KindMeta, Meta: &Meta{Source: "fresh"}})
	w.Append(&Record{Kind: KindAdmit, Time: 10, Task: 1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, truncated, err := ReadFile(path)
	if err != nil || truncated {
		t.Fatalf("reread: err=%v truncated=%v", err, truncated)
	}
	if len(got) != 2 || got[0].Meta.Source != "fresh" || got[1].Task != 1 {
		t.Fatalf("unexpected records %+v", got)
	}
}

func TestHealthCountersAndSyncBatching(t *testing.T) {
	health := obs.NewRecorder()
	path := filepath.Join(t.TempDir(), "log.dlg")
	w, err := Create(path, Options{Health: health})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2*syncEvery + 1
	for i := 0; i < n; i++ {
		w.Append(&Record{Kind: KindAdmit, Time: simtime.Time(i), Task: int64(i)})
	}
	ds := health.DeclogStats()
	if ds.Records != n {
		t.Fatalf("records counter = %d, want %d", ds.Records, n)
	}
	if ds.Bytes == 0 {
		t.Fatal("bytes counter stayed zero")
	}
	// 2*syncEvery+1 appends fire the batched fsync twice; Close flushes
	// the odd record out for a third.
	if n := health.DeclogSyncLatency().Count(); n != 2 {
		t.Fatalf("fsync count after %d appends = %d, want 2", ds.Records, n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n := health.DeclogSyncLatency().Count(); n != 3 {
		t.Fatalf("fsync count after close = %d, want 3", n)
	}
}

// TestNilWriterIsInert: every way a sink can be partly or wholly off — nil
// sink, no log, no recorder, neither — takes all twelve kinds without
// panicking, and whichever half is attached still gets them.
func TestNilWriterIsInert(t *testing.T) {
	emitAll := func(s *Sink) {
		recs := sampleRecords()
		for i := range recs {
			s.Emit(&recs[i])
		}
	}
	var none *Sink
	emitAll(none)
	emitAll(&Sink{})
	if none.On() || (&Sink{}).On() {
		t.Fatal("a sink with nothing attached reports On")
	}

	path := filepath.Join(t.TempDir(), "log.dlg")
	w, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	logOnly := &Sink{Log: w}
	emitAll(logOnly)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _, err := ReadFile(path); err != nil || len(got) != len(sampleRecords()) {
		t.Fatalf("log-only sink wrote %d records (err %v), want %d", len(got), err, len(sampleRecords()))
	}

	obsOnly := &Sink{Obs: obs.NewRecorder()}
	emitAll(obsOnly)
	if got := obsOnly.Obs.Summarize(); got.Replans != 1 || got.LinksDown != 1 {
		t.Fatalf("obs-only sink counted %+v", got)
	}
	if !logOnly.On() || !obsOnly.On() {
		t.Fatal("a half-attached sink reports off")
	}

	var nw *Writer
	if err := nw.Append(&Record{}); err != nil {
		t.Fatal(err)
	}
	if err := nw.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := nw.Close(); err != nil {
		t.Fatal(err)
	}
	if b, err := nw.Bytes(); nw.Path() != "" || nw.Err() != nil || nw.Pending() != 0 || b != nil || err != nil {
		t.Fatal("nil writer leaked state")
	}
}

// TestMemoryWriterHasNoFile: the zero Writer is a log in memory. Before
// any append it reads back as the bare magic, a valid empty log; it never
// has anything to fsync, and it counts nothing on a health recorder.
func TestMemoryWriterHasNoFile(t *testing.T) {
	var w Writer
	b, err := w.Bytes()
	if err != nil || string(b) != Magic {
		t.Fatalf("empty memory log reads back %q, %v; want the magic", b, err)
	}
	if recs, truncated, err := Read(bytes.NewReader(b)); err != nil || truncated || len(recs) != 0 {
		t.Fatalf("empty memory log: %d records, truncated=%v, err=%v", len(recs), truncated, err)
	}
	w.Append(&Record{Kind: KindAdmit, Time: 1, Task: 1})
	if w.Path() != "" || w.Pending() != 0 || w.Sync() != nil || w.Err() != nil {
		t.Fatal("memory log reports file state")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSinkLogsReplayToOneTree is the sink's contract now that the log is
// the only record: the twelve kinds emitted through a sink with a file
// log and through one with a memory log leave the same bytes, and those
// bytes replay into the tree the records describe — every lifecycle
// field, the pass numbered, the chain, segments and link failure in place.
func TestSinkLogsReplayToOneTree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.dlg")
	file, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var mem Writer
	for _, s := range []*Sink{{Log: file}, {Log: &mem}} {
		recs := sampleRecords()
		for i := range recs {
			s.Emit(&recs[i])
		}
	}
	fromFile, err := file.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	fromMem, err := mem.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromFile, onDisk) || !bytes.Equal(fromMem, onDisk) {
		t.Fatalf("read back %d (file) and %d (memory) bytes, the file holds %d", len(fromFile), len(fromMem), len(onDisk))
	}
	recs, truncated, err := Read(bytes.NewReader(fromMem))
	if err != nil || truncated {
		t.Fatalf("reread: err=%v truncated=%v", err, truncated)
	}
	rp := NewReplayer()
	rp.ApplyAll(recs)

	in := sampleRecords()
	pass := *in[2].Replan
	pass.Seq, pass.Committed = 1, true
	want := &span.Tree{
		Tasks: []span.TaskSpan{{Task: 7, Arrival: 100, Deadline: 5000, End: 300,
			Outcome: span.OutcomePreempted, Reason: "preempted by task 9", PreemptedBy: 9, Admitted: true,
			Flows: []int64{70, 71}, Blocks: in[6].Blocks}},
		Flows: []span.FlowSpan{
			{Flow: 70, Task: 7, Label: "h3->h17", Arrival: 100, Deadline: 5000, End: 990,
				Ended: true, Done: true, OnTime: true, Segments: in[9].Segments},
			{Flow: 71, Task: 7, Arrival: 100, Deadline: 5000},
		},
		Replans:   []span.ReplanSpan{pass},
		LinkDowns: []span.LinkDown{{Time: 1500, Link: 9}},
		LinkNames: in[0].Meta.LinkNames,
	}
	if got := rp.Tree(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed tree:\n got %+v\nwant %+v", got, want)
	}
}

// TestSinkLiveTreeEqualsReplay: the live tree of a run — what /trace
// serves mid-run, a replay of the sink's log as it stands — is after
// every record the tree a replayer folds from the records emitted so
// far, and at the end the tree of the finished file. The tree does not
// depend on whether counters are attached: the log bytes are the same.
func TestSinkLiveTreeEqualsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.dlg")
	file, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var live Writer
	counted := &Sink{Log: &live, Obs: obs.NewRecorder()}
	logged := &Sink{Log: file}
	direct := NewReplayer()
	emitted, written, folded := sampleRecords(), sampleRecords(), sampleRecords()
	for i := range emitted {
		counted.Emit(&emitted[i])
		logged.Emit(&written[i])
		direct.Apply(&folded[i])
		b, err := live.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		recs, truncated, err := Read(bytes.NewReader(b))
		if err != nil || truncated || len(recs) != i+1 {
			t.Fatalf("after record %d: %d records, truncated=%v, err=%v", i, len(recs), truncated, err)
		}
		rp := NewReplayer()
		rp.ApplyAll(recs)
		if !reflect.DeepEqual(rp.Tree(), direct.Tree()) {
			t.Fatalf("after record %d (%v) the live tree differs from the fold:\n live %+v\n fold %+v", i, emitted[i].Kind, rp.Tree(), direct.Tree())
		}
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	fromLive, err := live.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromLive, onDisk) {
		t.Fatalf("the counted sink logged %d bytes, the uncounted one %d", len(fromLive), len(onDisk))
	}
	recs, truncated, err := ReadFile(path)
	if err != nil || truncated {
		t.Fatalf("reread: err=%v truncated=%v", err, truncated)
	}
	rp := NewReplayer()
	rp.ApplyAll(recs)
	final := direct.Tree()
	if len(final.Tasks) != 1 || len(final.Flows) != 2 || len(final.Replans) != 1 || len(final.LinkDowns) != 1 {
		t.Fatalf("live tree: %d tasks, %d flows, %d passes, %d link-downs", len(final.Tasks), len(final.Flows), len(final.Replans), len(final.LinkDowns))
	}
	if !reflect.DeepEqual(final, rp.Tree()) {
		t.Fatalf("replayed file differs from the live tree:\n live %+v\nreplay %+v", final, rp.Tree())
	}
}

// TestCountBoundedByBytesLeft: a frame with a valid CRC whose replan
// record claims 1<<24 plans in a 10-byte payload is a corrupt frame — the
// torn tail — and reading it allocates nothing near what the claim would
// take (1<<24 plans of about a hundred bytes each).
func TestCountBoundedByBytesLeft(t *testing.T) {
	payload := []byte{byte(KindReplan), 0, byte(span.ReplanArrival), 0, 0, 0}
	payload = binary.AppendUvarint(payload, 1<<24)
	frame := make([]byte, frameHeaderSize)
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	data := append(append([]byte(Magic), frame...), payload...)
	if len(data) != 26 {
		t.Fatalf("crafted log is %d bytes, want 26", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	recs, truncated, err := Read(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err != nil || !truncated || len(recs) != 0 {
		t.Fatalf("crafted log: %d records, truncated=%v, err=%v; want a torn tail", len(recs), truncated, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("reading a 26-byte log allocated %d bytes", alloc)
	}
}

// appendRawFrame appends to the log at path one record this build decodes
// but never writes, framed the way Writer.Append frames its own.
func appendRawFrame(t *testing.T, path string, kind Kind, at simtime.Time, fields ...byte) {
	t.Helper()
	payload := binary.AppendVarint([]byte{byte(kind)}, at)
	payload = append(payload, fields...)
	frame := make([]byte, frameHeaderSize)
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(append(frame, payload...)); err != nil {
		t.Fatal(err)
	}
}

// checkRefused: reading the log and reopening it for append both fail with
// ErrCommitMode, and the refusal leaves the file as it was — the refused
// frame is intact, not a torn tail to cut away.
func checkRefused(t *testing.T, path string) []Record {
	t.Helper()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := ReadFile(path)
	if !errors.Is(err, ErrCommitMode) {
		t.Fatalf("ReadFile err = %v, want ErrCommitMode", err)
	}
	if _, _, err := OpenAppend(path, Options{}); !errors.Is(err, ErrCommitMode) {
		t.Fatalf("OpenAppend err = %v, want ErrCommitMode", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("refused log was modified: %d -> %d bytes", len(before), len(after))
	}
	return recs
}

// TestUnknownCommitModeRefused: a log holding commit mode 2 — the
// install-as-you-go "update" of controllers older than the decision
// kernel — is refused by name rather than replayed under other semantics,
// and reopening it for append must not cut the intact frame away as if it
// were a torn tail.
// tallySample is sampleRecords plus one record per remaining row of the
// tally's mapping: a rejected task, a killed flow and a late flow.
func tallySample() []Record {
	return append(sampleRecords(),
		Record{Kind: KindTaskEnd, Time: 205, Task: 8, Outcome: span.OutcomeRejected, Reason: "reject rule"},
		Record{Kind: KindTaskEnd, Time: 990, Task: 2, Outcome: span.OutcomeCompleted},
		Record{Kind: KindFlowEnd, Time: 205, Flow: 80, Reason: "task rejected"},
		Record{Kind: KindFlowEnd, Time: 6000, Flow: 71, Done: true},
	)
}

// TestSinkTally pins which records the sink counts as which decision.
func TestSinkTally(t *testing.T) {
	rec := obs.NewRecorder()
	s := Sink{Obs: rec}
	recs := tallySample()
	for i := range recs {
		s.Emit(&recs[i])
	}
	want := obs.Summary{Admitted: 1, Rejected: 1, Preempted: 1, Replans: 1, Missed: 2, LinksDown: 1}
	if got := rec.Summarize(); got != want {
		t.Fatalf("tally = %+v, want %+v", got, want)
	}
}

// TestSinkTallyZeroAllocs: counting adds no allocation to Emit, whatever
// the record's kind.
func TestSinkTallyZeroAllocs(t *testing.T) {
	s := &Sink{Obs: obs.NewRecorder()}
	recs := tallySample()
	if avg := testing.AllocsPerRun(100, func() {
		for i := range recs {
			s.Emit(&recs[i])
		}
	}); avg != 0 {
		t.Fatalf("Emit with a tally allocates %.1f/op, want 0", avg)
	}
}

func TestUnknownCommitModeRefused(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.dlg")
	w, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(&Record{Kind: KindAdmit, Time: 10, Task: 1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	appendRawFrame(t, path, KindCommit, 10, 2)
	appendRawFrame(t, path, KindAdmit, 20, 4, 0) // task 2, zigzag
	checkRefused(t, path)
}

// onePlan is a pass at `at` that grants one flow 100 µs on one link.
func onePlan(at simtime.Time, kind span.ReplanKind, task, flow int64, link int32) *span.ReplanSpan {
	return &span.ReplanSpan{Time: at, Kind: kind, Trigger: task, Flows: 1, PathsTried: 1,
		Plans: []span.PlanSpan{{Flow: flow, Task: task, Candidates: 1, Path: []int32{link},
			Slices: []simtime.Interval{{Start: at, End: at + 100}}, Finish: at + 100, Deadline: 5000}}}
}

// TestMergeCommitLogCutAtCommit: a log as a controller with append-only
// admission wrote it — admit records with the flag byte set, commits with
// mode 1 — decodes up to its first mode-1 commit and is refused there. The
// records before the cut replay; nothing after it is looked at.
func TestMergeCommitLogCutAtCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "merge.dlg")
	w, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(&Record{Kind: KindTask, Time: 10, Task: 1, Deadline: 5000, Flows: []FlowInfo{{ID: 10, Src: 1, Dst: 2, Size: 100}}})
	w.Append(&Record{Kind: KindReplan, Time: 10, Replan: onePlan(10, span.ReplanArrival, 1, 10, 3)})
	w.Append(&Record{Kind: KindCommit, Time: 10})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	appendRawFrame(t, path, KindAdmit, 10, 2, 1) // task 1, flag byte set
	w, _, err = OpenAppend(path, Options{})
	if err != nil {
		t.Fatalf("a log with a flagged admit and no merge commit must reopen: %v", err)
	}
	w.Append(&Record{Kind: KindTask, Time: 20, Task: 2, Deadline: 5000, Flows: []FlowInfo{{ID: 20, Src: 1, Dst: 2, Size: 100}}})
	w.Append(&Record{Kind: KindReplan, Time: 20, Replan: onePlan(20, span.ReplanKind(1), 2, 20, 4)})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	appendRawFrame(t, path, KindCommit, 20, 1)
	appendRawFrame(t, path, KindAdmit, 20, 4, 1)

	recs := checkRefused(t, path)
	if len(recs) != 6 || recs[3].Kind != KindAdmit || recs[3].Task != 1 || recs[5].Kind != KindReplan {
		t.Fatalf("records before the cut: %+v", recs)
	}
	rp := NewReplayer()
	rp.ApplyAll(recs)
	tree := rp.Tree()
	grants, _ := tree.Plan()
	if !tree.Task(1).Accepted() || tree.Task(2).Accepted() {
		t.Fatalf("replayed prefix: task 1 accepted=%v, task 2 accepted=%v; want true, false", tree.Task(1).Accepted(), tree.Task(2).Accepted())
	}
	want := simtime.NewIntervalSet(simtime.Interval{Start: 10, End: 110})
	if got := grants[10]; got.String() != want.String() {
		t.Fatalf("flow 10 holds %v after the replayed prefix, want %v", got, want)
	}
	if _, ok := grants[20]; ok {
		t.Fatal("the pass of the refused commit was installed")
	}
}

// TestIncrementalPassLogReplaysWhole: a log as a controller with the delta
// planner wrote it — a replan record of kind 5 carrying, after the paths
// tried, how many flows the pass re-planned — reads back with that pass as
// an arrival pass, reopens for append untouched, and replays through it:
// the records behind it are decoded and applied.
func TestIncrementalPassLogReplaysWhole(t *testing.T) {
	path := filepath.Join(t.TempDir(), "incremental.dlg")
	w, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(&Record{Kind: KindTask, Time: 10, Task: 1, Deadline: 5000, Flows: []FlowInfo{{ID: 10, Src: 1, Dst: 2, Size: 100}}})
	w.Append(&Record{Kind: KindReplan, Time: 10, Replan: onePlan(10, span.ReplanArrival, 1, 10, 3)})
	w.Append(&Record{Kind: KindCommit, Time: 10})
	w.Append(&Record{Kind: KindAdmit, Time: 10, Task: 1})
	w.Append(&Record{Kind: KindTask, Time: 20, Task: 2, Deadline: 5000, Flows: []FlowInfo{{ID: 20, Src: 1, Dst: 2, Size: 100}}})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Kind 5, trigger 2, 1 flow, 1 path tried, 1 flow re-planned, 1 plan.
	pass := onePlan(20, span.ReplanArrival, 2, 20, 4)
	fields := binary.AppendVarint([]byte{5}, pass.Trigger)
	fields = binary.AppendVarint(fields, int64(pass.Flows))
	fields = binary.AppendVarint(fields, pass.PathsTried)
	fields = binary.AppendVarint(fields, 1)
	fields = binary.AppendUvarint(fields, 1)
	appendRawFrame(t, path, KindReplan, 20, encodePlan(fields, &pass.Plans[0])...)
	appendRawFrame(t, path, KindCommit, 20, 0)
	appendRawFrame(t, path, KindAdmit, 20, 4, 0) // task 2, zigzag
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	recs, truncated, err := ReadFile(path)
	if err != nil || truncated {
		t.Fatalf("ReadFile: truncated=%v err=%v; the log is whole", truncated, err)
	}
	if len(recs) != 8 || recs[7].Kind != KindAdmit || recs[7].Task != 2 {
		t.Fatalf("decoded %d records, want 8 ending in task 2's admit: %+v", len(recs), recs)
	}
	if got := recs[5].Replan; got == nil || !reflect.DeepEqual(got, pass) {
		t.Fatalf("the kind-5 pass decoded as %+v, want %+v", got, pass)
	}

	w, reopened, err := OpenAppend(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(reopened) != len(recs) {
		t.Fatalf("OpenAppend recovered %d records, want %d", len(reopened), len(recs))
	}
	w.Append(&Record{Kind: KindFlowEnd, Time: 120, Flow: 20, Done: true, OnTime: true})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(after, before) || len(after) == len(before) {
		t.Fatalf("reopening rewrote the log: %d -> %d bytes", len(before), len(after))
	}

	rp := NewReplayer()
	rp.ApplyAll(recs)
	tree := rp.Tree()
	grants, _ := tree.Plan()
	if !tree.Task(1).Accepted() || !tree.Task(2).Accepted() {
		t.Fatalf("replay: task 1 accepted=%v, task 2 accepted=%v; want both", tree.Task(1).Accepted(), tree.Task(2).Accepted())
	}
	want := simtime.NewIntervalSet(simtime.Interval{Start: 20, End: 120})
	if got := grants[20]; got.String() != want.String() {
		t.Fatalf("flow 20 holds %v after the replay, want %v", got, want)
	}
	if _, ok := grants[10]; ok {
		t.Fatal("flow 10 kept its grant through a pass that left it out")
	}
	passes := tree.Replans
	if len(passes) != 2 || passes[1].Kind != span.ReplanArrival || passes[1].Seq != 2 || passes[1].Trigger != 2 {
		t.Fatalf("replayed passes: %+v", passes)
	}
}

// writeLog writes recs to a fresh log at path and returns its bytes.
func writeLog(t *testing.T, path string, recs []Record) []byte {
	t.Helper()
	w, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		w.Append(&recs[i])
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRedoChecksThenAppends: after Redo, appends that reproduce the log's
// records write nothing, and the first append past its end is written.
func TestRedoChecksThenAppends(t *testing.T) {
	recs := sampleRecords()
	path := filepath.Join(t.TempDir(), "redo.dlg")
	writeLog(t, path, recs[:4])
	want := writeLog(t, filepath.Join(t.TempDir(), "want.dlg"), recs[:5])
	w, _, err := OpenAppend(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Redo(); err != nil {
		t.Fatal(err)
	}
	for i := range recs[:5] {
		if err := w.Append(&recs[i]); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if n, err := w.Redone(); n != min(i+1, 4) || err != nil {
			t.Fatalf("after append %d: %d redone, %v", i, n, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
		t.Fatalf("redone log is %d bytes, want the %d of writing every record once", len(got), len(want))
	}
}

// TestRedoRefusesADifferentRecord: the first append that differs from the
// log's next record is refused, naming the record's index, and nothing is
// written then or after.
func TestRedoRefusesADifferentRecord(t *testing.T) {
	recs := sampleRecords()
	path := filepath.Join(t.TempDir(), "redo.dlg")
	before := writeLog(t, path, recs[:4])
	w, _, err := OpenAppend(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Redo(); err != nil {
		t.Fatal(err)
	}
	w.Append(&recs[0])
	w.Append(&recs[1])
	other := recs[2]
	other.Time++
	if err := w.Append(&other); err == nil || !strings.Contains(err.Error(), "record 2 differs") {
		t.Fatalf("a different record 2: %v", err)
	}
	w.Append(&recs[2])
	w.Append(&recs[3])
	w.Append(&recs[4])
	if n, err := w.Redone(); n != 2 || err == nil {
		t.Fatalf("after the refusal: %d redone, %v", n, err)
	}
	w.Close()
	if got, _ := os.ReadFile(path); !bytes.Equal(got, before) {
		t.Fatalf("the refused log changed: %d -> %d bytes", len(before), len(got))
	}
}
