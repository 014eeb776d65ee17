// Package simtime provides the time primitives used throughout the TAPS
// reproduction: an integer microsecond clock, half-open intervals, and
// disjoint sorted interval sets with FirstFit, the bounded first-fit sweep
// over a path's per-link busy sets that the TAPS controller's time-slice
// allocator (Alg. 3 of the paper) is: the occupied union and its idle
// complement are computed on the fly by the sweep, never stored.
//
// All times are int64 microseconds. Intervals are half-open [Start, End).
// The zero IntervalSet is an empty, ready-to-use set.
package simtime

import (
	"fmt"
	"math"
	"strings"
)

// Time is an instant or duration in integer microseconds.
type Time = int64

// Common time constants, in microseconds.
const (
	Microsecond Time = 1
	Millisecond Time = 1000
	Second      Time = 1000 * 1000

	// Infinity is a sentinel "never" instant. It is far enough in the
	// future that no arithmetic in the simulator overflows.
	Infinity Time = math.MaxInt64 / 4
)

// FromMillis converts milliseconds to Time.
func FromMillis(ms float64) Time { return Time(math.Round(ms * float64(Millisecond))) }

// ToMillis converts a Time to float milliseconds.
func ToMillis(t Time) float64 { return float64(t) / float64(Millisecond) }

// Interval is a half-open time interval [Start, End). An Interval with
// End <= Start is empty.
type Interval struct {
	Start, End Time
}

// Len returns the length of the interval, which is zero for empty intervals.
func (iv Interval) Len() Time {
	if iv.End <= iv.Start {
		return 0
	}
	return iv.End - iv.Start
}

// Empty reports whether the interval contains no instants.
func (iv Interval) Empty() bool { return iv.End <= iv.Start }

// Contains reports whether t lies inside [Start, End).
func (iv Interval) Contains(t Time) bool { return t >= iv.Start && t < iv.End }

// Overlaps reports whether the two intervals share at least one instant.
// Empty intervals overlap nothing.
func (iv Interval) Overlaps(o Interval) bool {
	return !iv.Empty() && !o.Empty() && iv.Start < o.End && o.Start < iv.End
}

// Intersect returns the overlap of two intervals (possibly empty).
func (iv Interval) Intersect(o Interval) Interval {
	s, e := max(iv.Start, o.Start), min(iv.End, o.End)
	return Interval{s, e}
}

func (iv Interval) String() string {
	return fmt.Sprintf("[%d,%d)", iv.Start, iv.End)
}

// IntervalSet is a set of instants represented as sorted, disjoint,
// non-adjacent, non-empty intervals. The zero value is the empty set.
//
// IntervalSet values are not safe for concurrent mutation.
type IntervalSet struct {
	ivs []Interval
}

// NewIntervalSet builds a set from arbitrary intervals (they may overlap,
// touch, be empty, or be out of order; the result is normalized).
func NewIntervalSet(ivs ...Interval) IntervalSet {
	var s IntervalSet
	for _, iv := range ivs {
		s.Add(iv)
	}
	return s
}

// Clone returns an independent copy of the set.
func (s IntervalSet) Clone() IntervalSet {
	out := make([]Interval, len(s.ivs))
	copy(out, s.ivs)
	return IntervalSet{ivs: out}
}

// Reset empties the set, keeping the backing array for reuse: a warm
// scratch set refilled every pass never re-allocates.
func (s *IntervalSet) Reset() { s.ivs = s.ivs[:0] }

// Intervals returns the normalized intervals of the set. The returned slice
// must not be mutated.
func (s IntervalSet) Intervals() []Interval { return s.ivs }

// Empty reports whether the set contains no instants.
func (s IntervalSet) Empty() bool { return len(s.ivs) == 0 }

// Count returns the number of maximal intervals in the set.
func (s IntervalSet) Count() int { return len(s.ivs) }

// Total returns the total measure (sum of interval lengths) of the set.
func (s IntervalSet) Total() Time {
	var t Time
	for _, iv := range s.ivs {
		t += iv.Len()
	}
	return t
}

// firstEndAbove returns the index of the first interval with End > t, or
// len(s.ivs) if none exists. All preceding intervals lie entirely at or
// before t.
func (s IntervalSet) firstEndAbove(t Time) int {
	lo, hi := 0, len(s.ivs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.ivs[mid].End <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Contains reports whether instant t is in the set.
func (s IntervalSet) Contains(t Time) bool {
	i := s.firstEndAbove(t)
	return i < len(s.ivs) && s.ivs[i].Contains(t)
}

// OverlapsInterval reports whether any instant of iv is in the set.
func (s IntervalSet) OverlapsInterval(iv Interval) bool {
	if iv.Empty() {
		return false
	}
	i := s.firstEndAbove(iv.Start)
	return i < len(s.ivs) && s.ivs[i].Start < iv.End
}

// OverlapTotal returns the total measure of the set's intersection with
// iv — how much of the window the set occupies. The causal-attribution
// layer uses it to rank which holders' slices block a window, and the
// trace exporter to clip slice windows to plan validity.
func (s IntervalSet) OverlapTotal(iv Interval) Time {
	if iv.Empty() {
		return 0
	}
	var total Time
	for i := s.firstEndAbove(iv.Start); i < len(s.ivs) && s.ivs[i].Start < iv.End; i++ {
		total += s.ivs[i].Intersect(iv).Len()
	}
	return total
}

// Add inserts the interval into the set, merging with neighbours.
// Empty intervals are ignored. Adjacent intervals are coalesced.
//
// Both the insertion window and the splice are allocation-free (beyond
// amortized growth of the backing array): the window is located by binary
// search and existing intervals are shifted in place.
func (s *IntervalSet) Add(iv Interval) {
	if iv.Empty() {
		return
	}
	n := len(s.ivs)
	// Append fast path: occupancy is built in roughly increasing start
	// order (first-fit in deadline order), so most insertions land past
	// the current tail.
	if n == 0 || iv.Start > s.ivs[n-1].End {
		s.ivs = append(s.ivs, iv)
		return
	}
	if iv.Start == s.ivs[n-1].End {
		s.ivs[n-1].End = max(s.ivs[n-1].End, iv.End)
		return
	}
	// Insertion window [lo, hi): all intervals that overlap or touch iv.
	// lo is the first interval with End >= iv.Start, hi the first with
	// Start > iv.End.
	lo, h := 0, n
	for lo < h {
		mid := int(uint(lo+h) >> 1)
		if s.ivs[mid].End < iv.Start {
			lo = mid + 1
		} else {
			h = mid
		}
	}
	hi, h2 := lo, n
	for hi < h2 {
		mid := int(uint(hi+h2) >> 1)
		if s.ivs[mid].Start <= iv.End {
			hi = mid + 1
		} else {
			h2 = mid
		}
	}
	if lo < hi {
		iv.Start = min(iv.Start, s.ivs[lo].Start)
		iv.End = max(iv.End, s.ivs[hi-1].End)
	}
	if lo == hi {
		// Pure insertion at lo: grow by one and shift the tail right.
		s.ivs = append(s.ivs, Interval{})
		copy(s.ivs[lo+1:], s.ivs[lo:n])
		s.ivs[lo] = iv
		return
	}
	// Replace [lo, hi) with the merged interval and shift the tail left.
	s.ivs[lo] = iv
	s.ivs = s.ivs[:lo+1+copy(s.ivs[lo+1:], s.ivs[hi:])]
}

// Remove deletes the interval's instants from the set.
func (s *IntervalSet) Remove(iv Interval) {
	if iv.Empty() || len(s.ivs) == 0 {
		return
	}
	out := s.ivs[:0:0]
	for _, cur := range s.ivs {
		if !cur.Overlaps(iv) {
			out = append(out, cur)
			continue
		}
		if cur.Start < iv.Start {
			out = append(out, Interval{cur.Start, iv.Start})
		}
		if cur.End > iv.End {
			out = append(out, Interval{iv.End, cur.End})
		}
	}
	s.ivs = out
}

// UnionInPlace adds every interval of b into s.
func (s *IntervalSet) UnionInPlace(b *IntervalSet) {
	for _, iv := range b.ivs {
		s.Add(iv)
	}
}

// Intersect returns the intersection of the two sets.
func Intersect(a, b IntervalSet) IntervalSet {
	var out IntervalSet
	i, j := 0, 0
	for i < len(a.ivs) && j < len(b.ivs) {
		iv := a.ivs[i].Intersect(b.ivs[j])
		if !iv.Empty() {
			out.ivs = append(out.ivs, iv)
		}
		if a.ivs[i].End < b.ivs[j].End {
			i++
		} else {
			j++
		}
	}
	return out
}

// FirstFit is Alg. 3 for one path: given the busy sets of the path's links,
// it returns the instant at which `units` microseconds that are idle on
// every set, taken as early as possible at or after `from`, have all
// elapsed. ok is false when that instant is not strictly before `before`;
// finish is then only a lower bound on it. The path's occupied union
// (Alg. 3's Tocp) and its complement are never built: one cursor per set
// walks the busy intervals in start order, the gaps between them are taken
// as they pass, and the sweep is abandoned at the first busy interval that
// leaves the remaining units no room before the bound — a planner that
// passes the best finish so far pays for a beaten candidate only up to
// there.
//
// dst, when non-nil, receives the taken slices: its previous contents are
// discarded (also by a call that fails, which leaves a partial result the
// next call overwrites) and its backing storage reused, so a warm
// caller-owned scratch set makes the operation allocation-free. dst must
// not alias any element of sets. Passing a pre-built slice as `sets...`
// avoids the variadic allocation.
func FirstFit(dst *IntervalSet, from, units, before Time, sets ...IntervalSet) (finish Time, ok bool) {
	if dst != nil {
		dst.ivs = dst.ivs[:0]
	}
	if units <= 0 {
		return from, from < before
	}
	// Per-set cursors; planner paths have at most a handful of links, so
	// the cursor array lives on the stack for the common case.
	var cursBuf [12]int
	var curs []int
	if len(sets) <= len(cursBuf) {
		curs = cursBuf[:len(sets)]
	} else {
		curs = make([]int, len(sets)) // spill path for more sets than the fixed cursor buffer; callers stay within it
	}
	for i := range sets {
		curs[i] = sets[i].firstEndAbove(from)
	}
	// t is the sweep position, remaining what is still to take: the finish
	// can be no earlier than t + remaining, which only a busy interval
	// starting before then pushes out.
	t, remaining := from, units
	for t+remaining < before {
		// Pick the set whose next interval starts earliest, leaving behind
		// the intervals the sweep has already passed the end of.
		next := -1
		var iv Interval
		for i := range sets {
			ivs, c := sets[i].ivs, curs[i]
			for c < len(ivs) && ivs[c].End <= t {
				c++
			}
			curs[i] = c
			if c < len(ivs) && (next < 0 || ivs[c].Start < iv.Start) {
				next, iv = i, ivs[c]
			}
		}
		if next < 0 || iv.Start >= t+remaining {
			// Idle from t for as long as it takes.
			if dst != nil {
				dst.ivs = append(dst.ivs, Interval{t, t + remaining})
			}
			return t + remaining, true
		}
		curs[next]++
		if iv.Start > t {
			if dst != nil {
				dst.ivs = append(dst.ivs, Interval{t, iv.Start})
			}
			remaining -= iv.Start - t
		}
		t = iv.End
	}
	return t + remaining, false
}

// NextInstantIn returns the earliest instant >= from contained in the set,
// or (Infinity, false) if there is none.
func (s IntervalSet) NextInstantIn(from Time) (Time, bool) {
	if i := s.firstEndAbove(from); i < len(s.ivs) {
		return max(s.ivs[i].Start, from), true
	}
	return Infinity, false
}

// NextBoundaryAfter returns the earliest interval boundary (start or end)
// strictly greater than t, or Infinity if none exists. The simulator uses it
// to find the next instant a plan-following rate changes.
func (s IntervalSet) NextBoundaryAfter(t Time) Time {
	i := s.firstEndAbove(t)
	if i == len(s.ivs) {
		return Infinity
	}
	// Every earlier interval has both boundaries <= t; this one has End > t.
	if s.ivs[i].Start > t {
		return s.ivs[i].Start
	}
	return s.ivs[i].End
}

// GCBefore removes all instants strictly before t. Planners call this to
// drop occupancy records that can no longer influence allocation. The trim
// happens in place, without allocating.
func (s *IntervalSet) GCBefore(t Time) {
	i := s.firstEndAbove(t)
	if i > 0 {
		s.ivs = s.ivs[:copy(s.ivs, s.ivs[i:])]
	}
	if len(s.ivs) > 0 && s.ivs[0].Start < t {
		s.ivs[0].Start = t
	}
}

// Valid reports whether the internal representation invariants hold:
// sorted, disjoint, non-adjacent, non-empty intervals. It exists for tests.
func (s IntervalSet) Valid() bool {
	for i, iv := range s.ivs {
		if iv.Empty() {
			return false
		}
		if i > 0 && s.ivs[i-1].End >= iv.Start {
			return false
		}
	}
	return true
}

func (s IntervalSet) String() string {
	if len(s.ivs) == 0 {
		return "{}"
	}
	parts := make([]string, len(s.ivs))
	for i, iv := range s.ivs {
		parts[i] = iv.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}
