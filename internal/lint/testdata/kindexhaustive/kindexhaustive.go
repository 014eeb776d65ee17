// Package kindexhaustive is a tapslint fixture: switches over closed
// enums that miss constants or hide them behind a default, the annotated
// corrupt-input-guard default, and the open-enum false-positive guard.
package kindexhaustive

import (
	"taps/internal/core"
	"taps/internal/obs/declog"
)

// partial misses core.Preempt.
func partial(d core.Decision) int {
	switch d { // want "does not handle Preempt"
	case core.Accept:
		return 1
	case core.RejectNew:
		return 2
	}
	return 0
}

// swallow hides RejectNew and Preempt behind an unannotated default.
func swallow(d core.Decision) int {
	switch d {
	case core.Accept:
		return 1
	default: // want "default clause"
		return 0
	}
}

// guarded documents why its default exists: legal.
func guarded(d core.Decision) int {
	switch d {
	case core.Accept, core.RejectNew, core.Preempt:
		return 1
	//taps:allow kindexhaustive corrupt-input guard for values decoded from disk
	default:
		return 0
	}
}

// full covers every constant: legal without a default.
func full(d core.Decision) int {
	switch d {
	case core.Accept:
		return 1
	case core.RejectNew:
		return 2
	case core.Preempt:
		return 3
	}
	return 0
}

// open is not in the registry: switches over it are unconstrained.
type open uint8

// OpenA is open's only constant.
const OpenA open = 0

func openSwitch(o open) int {
	switch o {
	default:
		return 0
	}
}

// registry exercises a second registered enum: declog.Kind is closed, and
// this switch handles only one of its twelve kinds.
func registry(k declog.Kind) string {
	switch k { // want "does not handle .*KindCommit"
	case declog.KindMeta:
		return "meta"
	}
	return ""
}
