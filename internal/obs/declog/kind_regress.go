//go:build taps_regress_newkind

package declog

// KindRegress simulates "record kind 13 added without replayer handling".
// The file is compiled only under the taps_regress_newkind build tag
// (`go list -tags`, via Loader.Tags); internal/lint's
// TestKindExhaustiveCatchesNewKind loads this package with the tag set and
// asserts that the kindexhaustive analyzer flags encodeRecord's and the
// replayer's Kind switches the moment a constant exists that they do not
// handle. Normal builds and lint runs never see it.
const KindRegress Kind = 99
