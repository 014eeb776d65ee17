// Package broken is a tapslint fixture that does not type-check: loading
// it must fail with the offending file:line rather than analyze anything.
package broken

func Answer() int {
	return "forty-two"
}
