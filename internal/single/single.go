// Package single implements the Single-policy algorithms of the paper:
// Algorithm 1 (single-gen), a (Δ+1)-approximation for Single with
// distance constraints (a Δ-approximation without them), and
// Algorithm 2 (single-nod), a 2-approximation for Single-NoD.
// Single is NP-hard in the strong sense even on binary trees without
// distance constraints (Theorem 1), so these approximations are the
// best practical tools the paper offers for this policy.
//
// Session holds the one implementation of both algorithms; Gen and NoD
// run it once on a fresh session.
package single

import "replicatree/internal/core"

// Gen runs Algorithm 1 (single-gen) and returns a feasible solution to
// Single. The returned solution uses at most (Δ+1)·opt replicas, and at
// most Δ·opt when in.DMax is core.NoDistance (Corollary 1). It returns
// an error if some client has ri > W (then Single has no solution) or
// the instance is invalid.
//
// Time complexity: O(Δ·|T|) list-merge operations (Theorem 3).
func Gen(in *core.Instance) (*core.Solution, error) {
	return solveOnce(in, (*Session).Gen)
}

// NoD runs Algorithm 2 (single-nod), the 2-approximation for
// Single-NoD. The instance's DMax is ignored: the algorithm assumes no
// distance constraint, and the returned solution is feasible for the
// NoD relaxation of the instance (it is also feasible for the original
// instance whenever the original instance's DMax is NoDistance).
//
// Time complexity: O((Δ log Δ + |C|)·|T|) (Theorem 4).
func NoD(in *core.Instance) (*core.Solution, error) {
	return solveOnce(in, (*Session).NoD)
}

// solveOnce validates in, runs one algorithm on a fresh session and
// returns a copy of its solution, so the caller's result does not pin
// the session's buffers.
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
	return sol.Clone(), nil
}
