//go:build mutation

package scenario

import (
	"b2b/internal/coord"
	"b2b/internal/pagestate"
	"b2b/internal/tuple"
)

// This file is the mutation smoke build: `go test -tags mutation` replaces
// the honest patch validator at one party with a deliberately broken one
// that violates the copy-on-write aliasing rule — it scribbles on the LIVE
// installed state the engine just handed it, silently diverging that
// replica from the agreed state it acknowledged. The invariant checker MUST
// flag the resulting divergence (TestMutationSmoke asserts it does); if it
// ever stops failing under this tag, the checker has gone blind.

// mutationBroken reports that this binary carries the broken validator.
const mutationBroken = true

func wrapMutation(v coord.Validator) coord.Validator { return brokenValidator{v} }

// brokenValidator forwards everything to the honest validator and then
// corrupts the installed state in place.
type brokenValidator struct{ coord.Validator }

// Installed is the defect: the state pointer is the engine's own live
// agreed state, and writing through it silently diverges this replica's
// bytes from the Merkle identity it just acknowledged. The very next honest
// proposal validates against the corrupted base and is vetoed, the group
// stalls, and the checker's silent-divergence probe fires (the smoke runs
// with Window=1 so the corrupted object IS the next validation base rather
// than a pipelined clone that the following commit would discard).
func (b brokenValidator) Installed(state *pagestate.Paged, t tuple.State) {
	b.Validator.Installed(state, t)
	_ = state.WriteAt(0, []byte(adversaryMarker))
}
