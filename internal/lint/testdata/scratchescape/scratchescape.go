// Package scratchescape is a tapslint fixture: simtime *Into destinations
// (planner-arena scratch) escaping without Clone, plus the legal idioms.
package scratchescape

import "taps/internal/simtime"

// arena mirrors the planner's evalScratch: reused Into destinations.
type arena struct {
	probe simtime.IntervalSet
	taken simtime.IntervalSet
	best  simtime.IntervalSet
}

type plan struct {
	slices simtime.IntervalSet
}

// eval sweeps into the arena fields, marking them scratch-backed, and ends
// with the legal double-buffer swap.
func (a *arena) eval(sets []simtime.IntervalSet, w simtime.Interval) {
	simtime.FirstFit(&a.probe, w.Start, 1, w.End, sets...)
	simtime.FirstFit(&a.taken, w.Start, 10, w.End, sets...)
	a.taken, a.best = a.best, a.taken // intra-arena swap: legal
}

// leakReturn hands the caller a set the next eval will rewrite.
func (a *arena) leakReturn() simtime.IntervalSet {
	return a.taken // want "scratch-backed taken .* returned"
}

// leakField aliases the arena into an unrelated struct.
func (a *arena) leakField(p *plan) {
	p.slices = a.best // want "scratch-backed best .* stored outside its arena"
}

// leakLiteral packs the arena into a published value.
func (a *arena) leakLiteral() plan {
	return plan{slices: a.probe} // want "scratch-backed probe .* packed into a composite literal"
}

// leakAlias escapes through a local copy: propagation catches it.
func (a *arena) leakAlias() simtime.IntervalSet {
	s := a.probe
	return s // want "scratch-backed s .* returned"
}

// publish is the required idiom: Clone detaches from the arena.
func (a *arena) publish() simtime.IntervalSet {
	return a.taken.Clone()
}

// firstSlices writes into a fresh local destination — owned by this call,
// free to escape, not flagged.
func firstSlices(sets ...simtime.IntervalSet) simtime.IntervalSet {
	var out simtime.IntervalSet
	simtime.FirstFit(&out, 0, 10, simtime.Infinity, sets...)
	return out
}

// suppressed documents a reviewed exemption.
func (a *arena) suppressed() simtime.IntervalSet {
	return a.taken //taps:allow scratchescape fixture: caller consumes before the next eval
}
