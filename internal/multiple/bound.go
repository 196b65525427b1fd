package multiple

import (
	"fmt"

	"replicatree/internal/core"
	"replicatree/internal/tree"
)

// BinarizedLowerBound bounds the Multiple-NoD optimum of an
// arbitrary-arity instance from below, in polynomial time, by solving
// a relaxation exactly: binarizing the tree inserts virtual candidate
// server locations connected by zero-length edges, which preserves
// every client's options and adds new ones — so the binarized optimum
// can only be lower — and on binary NoD instances Algorithm 3 computes
// that optimum (Theorem 6, confirmed by experiment E7).
//
// The bound is valid only without distance constraints (with dmax the
// binary algorithm is not guaranteed optimal, see the E7 finding) and
// requires ri ≤ W. It dominates the volume bound ⌈Σri/W⌉ and is
// incomparable with core.LowerBound in general; experiment E11
// measures all three against exact optima.
func BinarizedLowerBound(in *core.Instance) (int, error) {
	// No solver seam sees this solve, so it validates its input and
	// verifies its answer itself.
	if err := in.Validate(); err != nil {
		return 0, err
	}
	if !in.NoD() {
		return 0, fmt.Errorf("multiple: BinarizedLowerBound requires dmax = ∞")
	}
	if !in.FitsLocally() {
		return 0, fmt.Errorf("multiple: BinarizedLowerBound requires ri ≤ W")
	}
	bin := &core.Instance{Tree: tree.Binarize(in.Tree).Tree, W: in.W, DMax: core.NoDistance}
	var s Session
	s.Reset(bin)
	sol, err := s.Bin()
	if err != nil {
		return 0, err
	}
	if err := core.Verify(bin, core.Multiple, sol); err != nil {
		return 0, fmt.Errorf("multiple: algorithm produced infeasible solution: %w", err)
	}
	return sol.NumReplicas(), nil
}
