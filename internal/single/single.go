// Package single implements the Single-policy algorithms of the paper:
// Algorithm 1 (single-gen), a (Δ+1)-approximation for Single with
// distance constraints (a Δ-approximation without them), and
// Algorithm 2 (single-nod), a 2-approximation for Single-NoD.
// Single is NP-hard in the strong sense even on binary trees without
// distance constraints (Theorem 1), so these approximations are the
// best practical tools the paper offers for this policy. Around
// Algorithm 2 it adds the conclusion's "push servers towards the root"
// direction: the pass-up variant, the better of the two (NoDBest) and
// the PushUp post-pass.
//
// Session holds the one implementation of every algorithm here, each a
// walk over the tree's stored postorder; the package functions run it
// once on a fresh session.
package single

import (
	"fmt"

	"replicatree/internal/core"
)

// Gen runs Algorithm 1 (single-gen) and returns a feasible solution to
// Single. The returned solution uses at most (Δ+1)·opt replicas, and at
// most Δ·opt when in.DMax is core.NoDistance (Corollary 1). It returns
// an error if some client has ri > W (then Single has no solution) or
// the instance is invalid.
//
// Time complexity: O(Δ·|T|) list-merge operations (Theorem 3).
func Gen(in *core.Instance) (*core.Solution, error) {
	return solveOnce(in, false, (*Session).Gen)
}

// NoD runs Algorithm 2 (single-nod), the 2-approximation for
// Single-NoD. The instance's DMax is ignored: the algorithm assumes no
// distance constraint, and the returned solution is feasible for the
// NoD relaxation of the instance (it is also feasible for the original
// instance whenever the original instance's DMax is NoDistance).
//
// Time complexity: O((Δ log Δ + |C|)·|T|) (Theorem 4).
func NoD(in *core.Instance) (*core.Solution, error) {
	return solveOnce(in, true, (*Session).NoD)
}

// NoDPassUp is an experimental Single-NoD heuristic in the direction
// the paper's conclusion sketches for a conjectured 3/2-approximation
// of Single-NoD-Bin: "push servers towards the root of the tree,
// whenever possible. A greedy algorithm is unlikely to be good
// enough."
//
// It mirrors Algorithm 2 but changes the overflow step: when the
// pending bundles at node j exceed W, the server placed at j packs
// bundles largest-first (maximising served volume), and the unpacked
// remainder travels towards the root instead of being dumped on a jmin
// server. At the root, whatever cannot be packed is served at its own
// client.
//
// On the Fig. 4 family — where Algorithm 2 is stuck at ratio 2 — this
// variant is optimal. No approximation factor is proven; experiment
// E13 measures its empirical ratio against exact optima, and
// NoDBest (the better of NoD and NoDPassUp) is the practical tool.
func NoDPassUp(in *core.Instance) (*core.Solution, error) {
	return solveOnce(in, true, (*Session).PassUp)
}

// NoDBest returns the better of NoD (Algorithm 2, proven
// 2-approximation) and NoDPassUp, NoD's on a tie: never worse than
// either, so the 2-approximation guarantee carries over.
func NoDBest(in *core.Instance) (*core.Solution, error) {
	return solveOnce(in, true, (*Session).Best)
}

// solveOnce validates in, runs one algorithm on a fresh session,
// verifies its answer and returns a copy of it, so the caller's result
// does not pin the session's buffers. The NoD family (nod) ignores
// dmax, so its answer is verified against the dmax-free twin of in.
func solveOnce(in *core.Instance, nod bool, run func(*Session) (*core.Solution, error)) (*core.Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	var s Session
	s.Reset(in)
	sol, err := run(&s)
	if err != nil {
		return nil, err
	}
	check := in
	if nod {
		check = &core.Instance{Tree: in.Tree, W: in.W, DMax: core.NoDistance}
	}
	if err := core.Verify(check, core.Single, sol); err != nil {
		return nil, fmt.Errorf("single: algorithm produced infeasible solution: %w", err)
	}
	return sol.Clone(), nil
}
