package simtime

// The three-stage pipeline FirstFit replaced, kept as its differential
// oracle: Alg. 3 written out the way the paper states it — the occupied
// union of a path's links (Tocp), its idle complement inside a window, the
// first E idle units of that. Nothing outside this package's tests calls
// it.

// oracleFirstFit is FirstFit by way of the pipeline, for a window
// [from, end): the finish, whether the units fit inside the window, and
// the slices taken.
func oracleFirstFit(from, units, end Time, sets ...IntervalSet) (taken IntervalSet, finish Time, ok bool) {
	var occupied IntervalSet
	MergeInto(&occupied, sets...)
	return occupied.ComplementWithin(Interval{from, end}).TakeFirst(from, units)
}

// Union returns the union of the two sets.
func Union(a, b IntervalSet) IntervalSet {
	var out IntervalSet
	MergeInto(&out, a, b)
	return out
}

// MergeInto replaces dst's contents with the union of the given sets
// (Alg. 3's Tocp, the union of a path's per-link occupancies), produced in
// one linear pass. dst must not alias any element of sets.
func MergeInto(dst *IntervalSet, sets ...IntervalSet) {
	dst.ivs = dst.ivs[:0]
	curs := make([]int, len(sets))
	for {
		// Pick the set whose next interval starts earliest.
		best := -1
		var bestStart Time
		for i := range sets {
			if curs[i] >= len(sets[i].ivs) {
				continue
			}
			if st := sets[i].ivs[curs[i]].Start; best < 0 || st < bestStart {
				best, bestStart = i, st
			}
		}
		if best < 0 {
			return
		}
		iv := sets[best].ivs[curs[best]]
		curs[best]++
		if n := len(dst.ivs); n > 0 && dst.ivs[n-1].End >= iv.Start {
			// Overlaps or touches the tail: coalesce.
			if iv.End > dst.ivs[n-1].End {
				dst.ivs[n-1].End = iv.End
			}
		} else {
			dst.ivs = append(dst.ivs, iv)
		}
	}
}

// ComplementWithin returns the instants of window that are NOT in s —
// the "idle" time of window. This is the complement operation used by
// Alg. 3: the complement of the occupied union is the idle time.
func (s IntervalSet) ComplementWithin(window Interval) IntervalSet {
	var out IntervalSet
	s.ComplementWithinInto(window, &out)
	return out
}

// ComplementWithinInto is ComplementWithin into a caller-owned set: dst's
// previous contents are discarded. dst must not alias s.
func (s IntervalSet) ComplementWithinInto(window Interval, dst *IntervalSet) {
	dst.ivs = dst.ivs[:0]
	if window.Empty() {
		return
	}
	cursor := window.Start
	for i := s.firstEndAbove(cursor); i < len(s.ivs); i++ {
		iv := s.ivs[i]
		if iv.Start >= window.End {
			break
		}
		if iv.Start > cursor {
			dst.ivs = append(dst.ivs, Interval{cursor, min(iv.Start, window.End)})
		}
		cursor = max(cursor, iv.End)
		if cursor >= window.End {
			return
		}
	}
	dst.ivs = append(dst.ivs, Interval{cursor, window.End})
}

// TakeFirst returns, as a new set, the earliest `units` microseconds of s at
// or after `from`, together with the instant at which the last taken slice
// ends (the completion time). If the set holds fewer than `units`
// microseconds after `from`, ok is false and the returned set holds
// everything available.
//
// This is the "first E idle time slices" step of Alg. 3.
func (s IntervalSet) TakeFirst(from Time, units Time) (taken IntervalSet, finish Time, ok bool) {
	finish, ok = s.TakeFirstInto(from, units, &taken)
	return taken, finish, ok
}

// TakeFirstInto is TakeFirst into a caller-owned set: dst's previous
// contents are discarded. dst must not alias s.
func (s IntervalSet) TakeFirstInto(from Time, units Time, dst *IntervalSet) (finish Time, ok bool) {
	dst.ivs = dst.ivs[:0]
	if units <= 0 {
		return from, true
	}
	remaining := units
	finish = from
	for i := s.firstEndAbove(from); i < len(s.ivs); i++ {
		iv := s.ivs[i]
		start := max(iv.Start, from)
		take := min(iv.End-start, remaining)
		dst.ivs = append(dst.ivs, Interval{start, start + take})
		remaining -= take
		finish = start + take
		if remaining == 0 {
			return finish, true
		}
	}
	return finish, false
}
