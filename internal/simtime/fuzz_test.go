package simtime

import "testing"

// bitmapModel is the brute-force reference: one bool per microsecond in
// [0, bitmapLen). All fuzz inputs are folded into that range.
const bitmapLen = 512

func bitmap(s IntervalSet) [bitmapLen]bool {
	var m [bitmapLen]bool
	for _, iv := range s.Intervals() {
		for t := max(iv.Start, 0); t < min(iv.End, bitmapLen); t++ {
			m[t] = true
		}
	}
	return m
}

func setFromBytes(data []byte) IntervalSet {
	var s IntervalSet
	for i := 0; i+1 < len(data); i += 2 {
		// Spread starts so gaps exist; keep every interval inside the bitmap.
		a := (Time(data[i]) * 2) % (bitmapLen - 24)
		s.Add(Interval{a, a + Time(data[i+1])%24})
	}
	return s
}

// dirtyScratch returns a scratch set with stale garbage contents, to verify
// the Into operations fully overwrite whatever the buffer held before.
func dirtyScratch() IntervalSet {
	return NewIntervalSet(Interval{3, 9}, Interval{100, 250}, Interval{400, 401})
}

// FuzzFirstFit checks the bounded sweep against a greedy walk of the bitmap
// model — the first `units` instants at or after `from` that are busy on
// none of the sets — and against the oracle pipeline.
func FuzzFirstFit(f *testing.F) {
	f.Add([]byte{1, 10, 30, 5}, []byte{2, 8}, []byte{0, 0}, uint8(5), uint8(15), uint16(300))
	f.Add([]byte{}, []byte{255, 255}, []byte{4, 4, 4, 4}, uint8(200), uint8(0), uint16(0))
	f.Add([]byte{0, 23, 12, 23}, []byte{23, 1}, []byte{}, uint8(3), uint8(40), uint16(60))
	f.Fuzz(func(t *testing.T, d1, d2, d3 []byte, from, units uint8, before uint16) {
		sets := []IntervalSet{setFromBytes(d1), setFromBytes(d2), setFromBytes(d3)}
		busy := [bitmapLen]bool{}
		for _, s := range sets {
			m := bitmap(s)
			for i := range busy {
				busy[i] = busy[i] || m[i]
			}
		}
		// Everything at or after bitmapLen is idle: sets live below it.
		var want IntervalSet
		wantFinish, taken := Time(from), Time(0)
		for i := Time(from); taken < Time(units); i++ {
			if i >= bitmapLen || !busy[i] {
				want.Add(Interval{i, i + 1})
				wantFinish = i + 1
				taken++
			}
		}
		wantOK := wantFinish < Time(before)

		dst := dirtyScratch()
		finish, ok := FirstFit(&dst, Time(from), Time(units), Time(before), sets...)
		if ok != wantOK {
			t.Fatalf("sets %v from=%d units=%d before=%d: ok=%v, bitmap finish %d", sets, from, units, before, ok, wantFinish)
		}
		if !ok {
			if finish < Time(before) || finish > wantFinish {
				t.Fatalf("failed sweep reports finish %d: want a lower bound on %d that is no less than %d", finish, wantFinish, before)
			}
			return
		}
		if !dst.Valid() || finish != wantFinish || dst.String() != want.String() {
			t.Fatalf("sets %v from=%d units=%d: got %v finish %d, bitmap %v finish %d", sets, from, units, dst, finish, want, wantFinish)
		}
		if before > 0 {
			ref, refFinish, refOK := oracleFirstFit(Time(from), Time(units), Time(before)-1, sets...)
			if !refOK || refFinish != finish || ref.String() != dst.String() {
				t.Fatalf("sweep (%v,%d,true) != oracle (%v,%d,%v)", dst, finish, ref, refFinish, refOK)
			}
		}
	})
}

// FuzzMergeInto checks the k-way union against the bitmap model.
func FuzzMergeInto(f *testing.F) {
	f.Add([]byte{1, 10, 30, 5}, []byte{2, 8}, []byte{0, 0})
	f.Add([]byte{}, []byte{255, 255}, []byte{4, 4, 4, 4})
	f.Fuzz(func(t *testing.T, d1, d2, d3 []byte) {
		sets := []IntervalSet{setFromBytes(d1), setFromBytes(d2), setFromBytes(d3)}
		want := [bitmapLen]bool{}
		for _, s := range sets {
			m := bitmap(s)
			for i := range want {
				want[i] = want[i] || m[i]
			}
		}
		dst := dirtyScratch()
		MergeInto(&dst, sets...)
		if !dst.Valid() {
			t.Fatalf("MergeInto result invalid: %v", dst)
		}
		if got := bitmap(dst); got != want {
			t.Fatalf("MergeInto mismatch\nsets: %v %v %v\ngot:  %v", sets[0], sets[1], sets[2], dst)
		}
		// Must agree with the pairwise Union fallback.
		if ref := Union(Union(sets[0], sets[1]), sets[2]); ref.String() != dst.String() {
			t.Fatalf("MergeInto %v != Union chain %v", dst, ref)
		}
	})
}

// FuzzComplementWithinInto checks the complement against the bitmap model
// and the allocating ComplementWithin.
func FuzzComplementWithinInto(f *testing.F) {
	f.Add([]byte{1, 10, 30, 5}, uint16(0), uint16(200))
	f.Add([]byte{0, 24}, uint16(10), uint16(10))
	f.Fuzz(func(t *testing.T, data []byte, start, length uint16) {
		s := setFromBytes(data)
		w := Interval{Time(start) % bitmapLen, Time(start)%bitmapLen + Time(length)%bitmapLen}
		dst := dirtyScratch()
		s.ComplementWithinInto(w, &dst)
		if !dst.Valid() {
			t.Fatalf("complement invalid: %v", dst)
		}
		sm, dm := bitmap(s), bitmap(dst)
		for i := 0; i < bitmapLen; i++ {
			inWindow := w.Contains(Time(i))
			if want := inWindow && !sm[i]; dm[i] != want {
				t.Fatalf("complement bit %d = %v, want %v (s=%v w=%v got=%v)", i, dm[i], want, s, w, dst)
			}
		}
		if ref := s.ComplementWithin(w); ref.String() != dst.String() {
			t.Fatalf("Into %v != allocating %v", dst, ref)
		}
	})
}

// FuzzTakeFirstInto checks the first-E-units allocation against a greedy
// walk of the bitmap model and the allocating TakeFirst.
func FuzzTakeFirstInto(f *testing.F) {
	f.Add([]byte{0, 10, 20, 15}, uint8(5), uint8(15))
	f.Fuzz(func(t *testing.T, data []byte, from, units uint8) {
		s := setFromBytes(data)
		dst := dirtyScratch()
		finish, ok := s.TakeFirstInto(Time(from), Time(units), &dst)
		if !dst.Valid() {
			t.Fatalf("taken invalid: %v", dst)
		}
		refTaken, refFinish, refOK := s.TakeFirst(Time(from), Time(units))
		if refTaken.String() != dst.String() || refFinish != finish || refOK != ok {
			t.Fatalf("Into (%v,%d,%v) != allocating (%v,%d,%v)",
				dst, finish, ok, refTaken, refFinish, refOK)
		}
		// Greedy bitmap reference (sets from setFromBytes live in [0, bitmapLen)).
		sm := bitmap(s)
		var want [bitmapLen]bool
		taken := Time(0)
		for i := Time(from); i < bitmapLen && taken < Time(units); i++ {
			if sm[i] {
				want[i] = true
				taken++
			}
		}
		if got := bitmap(dst); got != want {
			t.Fatalf("taken bits mismatch: s=%v from=%d units=%d got=%v", s, from, units, dst)
		}
		if ok != (taken == Time(units)) {
			t.Fatalf("ok=%v but bitmap collected %d of %d", ok, taken, units)
		}
	})
}

// FuzzGCBefore checks the in-place trim against Remove on a clone.
func FuzzGCBefore(f *testing.F) {
	f.Add([]byte{1, 10, 30, 5}, uint16(25))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		s := setFromBytes(data)
		ref := s.Clone()
		ref.Remove(Interval{Start: -1 << 30, End: Time(cut)})
		s.GCBefore(Time(cut))
		if !s.Valid() {
			t.Fatalf("GCBefore invalid: %v", s)
		}
		if s.String() != ref.String() {
			t.Fatalf("GCBefore(%d) = %v, want %v", cut, s, ref)
		}
	})
}

// FuzzIntervalSetOps drives Add/Remove sequences from raw bytes and checks
// the representation invariants plus measure sanity after every step.
func FuzzIntervalSetOps(f *testing.F) {
	f.Add([]byte{1, 0, 10, 1, 5, 20, 0, 3, 8})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 255, 1, 1, 1, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s IntervalSet
		for i := 0; i+2 < len(data); i += 3 {
			op := data[i] % 2
			a := Time(data[i+1])
			b := Time(data[i+2])
			iv := Interval{Start: a, End: a + b%64}
			before := s.Total()
			switch op {
			case 0:
				s.Add(iv)
				if s.Total() < before || s.Total() > before+iv.Len() {
					t.Fatalf("Add measure out of bounds: %d -> %d (+%d)", before, s.Total(), iv.Len())
				}
			case 1:
				s.Remove(iv)
				if s.Total() > before || s.Total() < before-iv.Len() {
					t.Fatalf("Remove measure out of bounds: %d -> %d (-%d)", before, s.Total(), iv.Len())
				}
			}
			if !s.Valid() {
				t.Fatalf("invariants violated: %v", s)
			}
		}
		// Complement must partition an enclosing window.
		w := Interval{0, 400}
		comp := s.ComplementWithin(w)
		inW := Intersect(s, NewIntervalSet(w))
		if comp.Total()+inW.Total() != w.Len() {
			t.Fatalf("complement does not partition: %d + %d != %d",
				comp.Total(), inW.Total(), w.Len())
		}
	})
}

// FuzzTakeFirst checks the allocation postconditions on arbitrary sets.
func FuzzTakeFirst(f *testing.F) {
	f.Add([]byte{0, 10, 20, 30}, uint8(5), uint8(15))
	f.Fuzz(func(t *testing.T, data []byte, from, units uint8) {
		var s IntervalSet
		for i := 0; i+1 < len(data); i += 2 {
			a := Time(data[i])
			s.Add(Interval{a, a + Time(data[i+1])%32})
		}
		taken, finish, ok := s.TakeFirst(Time(from), Time(units))
		if !taken.Valid() {
			t.Fatal("taken set invalid")
		}
		if Intersect(taken, s).Total() != taken.Total() {
			t.Fatal("taken is not a subset")
		}
		if ok && taken.Total() != Time(units) {
			t.Fatalf("ok but took %d of %d", taken.Total(), units)
		}
		if !ok && taken.Total() >= Time(units) && units > 0 {
			t.Fatal("not ok but enough was taken")
		}
		for _, iv := range taken.Intervals() {
			if iv.Start < Time(from) || iv.End > finish {
				t.Fatalf("slice %v outside [from=%d, finish=%d]", iv, from, finish)
			}
		}
	})
}
