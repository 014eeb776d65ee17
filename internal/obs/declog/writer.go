package declog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"taps/internal/obs"
)

// castagnoli is the CRC-32C polynomial table shared by framing and
// verification.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameHeaderSize is the fixed per-record framing overhead: u32le payload
// length + u32le CRC-32C.
const frameHeaderSize = 8

// syncEvery batches fsyncs: a file log is synced after this many
// appended records (and always on Sync/Close).
const syncEvery = 64

// Options tunes a Writer.
type Options struct {
	// Health, when non-nil, receives writer health metrics: records
	// appended, bytes written, fsync latency, torn-tail truncations.
	Health *obs.Recorder
}

// Writer appends CRC-framed records to a decision log: a file (Create,
// OpenAppend), or — the zero Writer — a byte slice in memory, which has no
// fsync and reports no health counters. All methods are safe for
// concurrent use and no-ops on a nil *Writer, so a Sink with no log
// attached needs no conditionals. Write errors are sticky: the first one
// is retained (see Err) and subsequent appends are dropped, matching the
// crash-only recovery model — a torn or short tail is truncated on the
// next open.
type Writer struct {
	mu sync.Mutex
	f  *os.File
	// path names the file; empty for a log in memory.
	path string
	// buf is the frame scratch of a file log, reused across appends, and
	// the whole log of a memory one. Appends never rewrite bytes already
	// in it, so a slice of it taken under mu may be read outside.
	buf []byte
	// end is the length of a file log: the offset after its last frame.
	end     int64
	pending int // records appended since the last fsync
	health  *obs.Recorder
	err     error
	// redo is what is left of the frames to re-decide (Redo), and redone
	// how many the appends have reproduced.
	redo   []byte
	redone int
}

// Create creates (or truncates) a decision log at path and writes the
// file magic. Use OpenAppend to continue an existing log instead.
func Create(path string, opts Options) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("declog: %w", err)
	}
	if _, err := f.Write([]byte(Magic)); err != nil {
		f.Close()
		return nil, fmt.Errorf("declog: write magic: %w", err)
	}
	return newWriter(f, path, int64(len(Magic)), opts), nil
}

func newWriter(f *os.File, path string, end int64, opts Options) *Writer {
	return &Writer{f: f, path: path, end: end, health: opts.Health}
}

// Path returns the log file's path (empty on a nil or memory writer).
func (w *Writer) Path() string {
	if w == nil {
		return ""
	}
	return w.path
}

// Pending returns the number of records appended since the last fsync —
// the write-ahead backlog an operator sees on /load (zero on a nil
// writer).
func (w *Writer) Pending() int {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pending
}

// Err returns the first write error, if any.
func (w *Writer) Err() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Append frames and writes one record. A file log gets the frame in a
// single write; durability is batched — every syncEvery records the file
// is fsynced (and Sync forces it, which the networked controller does
// before broadcasting a decision: write-ahead). A memory log keeps the
// frame.
func (w *Writer) Append(r *Record) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.path != "" {
		w.buf = w.buf[:0]
	} else if len(w.buf) == 0 {
		w.buf = append(w.buf, Magic...)
	}
	start := len(w.buf)
	w.buf = append(w.buf, make([]byte, frameHeaderSize)...)
	w.buf = encodeRecord(w.buf, r)
	frame := w.buf[start:]
	payload := frame[frameHeaderSize:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	if w.path == "" {
		return nil
	}
	if len(w.redo) > 0 {
		return w.redoLocked(frame)
	}
	if _, err := w.f.Write(frame); err != nil { //taps:allow lockorder Writer.mu IS the append serializer: the write must happen under it to keep frames contiguous
		w.err = fmt.Errorf("declog: append: %w", err)
		return w.err
	}
	w.end += int64(len(frame))
	w.health.DeclogAppended(1, len(frame))
	w.pending++
	if w.pending >= syncEvery {
		return w.syncLocked()
	}
	return nil
}

// Redo makes the appends that follow re-decide the records the file holds:
// while any is left, an append is checked against the next, byte for byte,
// instead of written, and the first that differs is refused with an error
// that names its index and both records, sticky like a write error. Call
// it on a writer from OpenAppend, before its first append.
func (w *Writer) Redo() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.redo, w.redone = make([]byte, w.end-int64(len(Magic))), 0
	_, err := w.f.ReadAt(w.redo, int64(len(Magic))) //taps:allow lockorder one-time set-up before the first append
	return err
}

// Redone returns how many records the appends since Redo have reproduced,
// and the writer's error.
func (w *Writer) Redone() (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.redone, w.err
}

// redoLocked checks one appended frame against the next frame to redo.
func (w *Writer) redoLocked(frame []byte) error {
	n := frameHeaderSize + int(binary.LittleEndian.Uint32(w.redo))
	if !bytes.Equal(frame, w.redo[:n]) {
		logged, _ := decodeRecord(w.redo[frameHeaderSize:n])
		redone, _ := decodeRecord(frame[frameHeaderSize:])
		w.err = fmt.Errorf("declog: record %d differs: the log holds %+v %+v, re-deciding wrote %+v %+v",
			w.redone, logged, logged.Replan, redone, redone.Replan)
		return w.err
	}
	w.redo, w.redone = w.redo[n:], w.redone+1
	return nil
}

// Bytes reads the log back as written so far: the magic and every
// appended frame, never a partial one. A file log is synced first and
// read outside the lock up to the length it had then; a memory log hands
// out the bytes it holds without copying — the caller must not modify
// them. /declog, /trace and /why serve from here, and tapsim replays it.
func (w *Writer) Bytes() ([]byte, error) {
	if w == nil {
		return nil, nil
	}
	w.mu.Lock()
	if w.path == "" {
		b := w.buf[:len(w.buf):len(w.buf)]
		w.mu.Unlock()
		if len(b) == 0 {
			return []byte(Magic), nil
		}
		return b, nil
	}
	err := w.err
	if err == nil {
		err = w.syncLocked()
	}
	end := w.end
	w.mu.Unlock()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(w.path)
	if err != nil {
		return nil, fmt.Errorf("declog: %w", err)
	}
	defer f.Close()
	b := make([]byte, end)
	if _, err := io.ReadFull(f, b); err != nil {
		return nil, fmt.Errorf("declog: read back: %w", err)
	}
	return b, nil
}

// Sync fsyncs any buffered records to stable storage. Call it before
// acting on a decision (write-ahead) or before serving the file.
func (w *Writer) Sync() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	return w.syncLocked()
}

func (w *Writer) syncLocked() error {
	if w.pending == 0 {
		return nil
	}
	w.pending = 0
	// The fsync is timed through obs.Stopwatch: this package records only
	// simulated time and stays inside the tapslint wallclock scope without
	// suppressions.
	sw := obs.StartStopwatch()
	err := w.f.Sync() //taps:allow lockorder group-commit fsync: callers batched behind mu are exactly the ones this sync makes durable
	w.health.ObserveDeclogSync(sw.Elapsed())
	if err != nil {
		w.err = fmt.Errorf("declog: fsync: %w", err)
		return w.err
	}
	return nil
}

// Close syncs and closes the log. Safe to call once; nil-safe.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return w.err
	}
	syncErr := w.syncLocked()
	closeErr := w.f.Close() //taps:allow lockorder one-time teardown; mu excludes concurrent appends against the closing fd
	w.f = nil
	if w.err == nil && closeErr != nil {
		w.err = fmt.Errorf("declog: close: %w", closeErr)
	}
	if syncErr != nil {
		return syncErr
	}
	return w.err
}
