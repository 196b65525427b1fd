package multiple

import (
	"fmt"

	"replicatree/internal/core"
)

// Bin runs Algorithm 3 (multiple-bin), the paper's polynomial-time
// algorithm for Multiple-Bin. Preconditions (checked): the tree is
// binary and every client satisfies ri ≤ W — the regime of Theorem 6.
// Violations return an error (with ri > W the problem is NP-hard,
// Theorem 5).
//
// Reproduction note: Theorem 6 claims optimality. Without distance
// constraints our measurements confirm it on every random instance
// tried; with distance constraints we found rare off-by-one
// counterexamples (see TestTheorem6Counterexample and experiment E7)
// caused by the eager "wtot > W" placement rule committing a full
// server below a later distance-blocked, under-filled one. Use Best
// for the empirically strongest polynomial placement.
//
// Time complexity: O(|T|²).
func Bin(in *core.Instance) (*core.Solution, error) {
	return solveOnce(in, (*Session).Bin)
}

// Greedy runs the generalisation of Algorithm 3 to arbitrary arity.
// On binary trees it is exactly Algorithm 3; on wider trees it is a
// feasible heuristic. Empirically (experiments E7/E8) it matches the
// exact optimum on ≈99% of random instances, with a worst observed
// gap of one replica; the NoD general-arity regime is the one the
// paper cites as polynomially solvable [3]. Requires ri ≤ W.
func Greedy(in *core.Instance) (*core.Solution, error) {
	return solveOnce(in, (*Session).Greedy)
}

// Lazy runs the delayed-placement variant of Algorithm 3: a server is
// placed only when the distance constraint forces one (or at the
// root), never by the paper's eager "more than W requests in temp"
// trigger; request lists flowing upwards may therefore exceed W and
// the generalised extra-server machinery redistributes them.
//
// Motivation: the repository's reproduction found a 9-node
// counterexample (see TestTheorem6Counterexample) where the faithful
// Algorithm 3 is off by one because the eager trigger commits W
// requests below a node that a distance-blocked, under-filled server
// is later placed on. Delaying placement resolves that class of
// instances; experiment E7 measures both variants against the exact
// optimum. Requires ri ≤ W.
func Lazy(in *core.Instance) (*core.Solution, error) {
	return solveOnce(in, (*Session).Lazy)
}

// Best runs both the faithful (eager) generalisation of Algorithm 3
// and the Lazy variant and returns the solution with fewer replicas.
// Each variant covers the other's rare failure class (see experiment
// E7): across thousands of random instances the combination is
// optimal on ≈99.9%. Requires ri ≤ W.
func Best(in *core.Instance) (*core.Solution, error) {
	return solveOnce(in, (*Session).Best)
}

// solveOnce validates in, runs one variant on a fresh session,
// verifies its answer and returns a copy of it, so the caller's result
// does not pin the session's buffers.
func solveOnce(in *core.Instance, run func(*Session) (*core.Solution, error)) (*core.Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	var s Session
	s.Reset(in)
	sol, err := run(&s)
	if err != nil {
		return nil, err
	}
	if err := core.Verify(in, core.Multiple, sol); err != nil {
		return nil, fmt.Errorf("multiple: algorithm produced infeasible solution: %w", err)
	}
	return sol.Clone(), nil
}
