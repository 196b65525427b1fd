package multiple

import (
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/exact"
	"replicatree/internal/tree"
)

// counterexample builds the 9-node instance on which the faithful
// Algorithm 3 is suboptimal — discovered by this repository's
// randomised cross-validation (experiment E7):
//
//	         root                     W = 7, dmax = 5
//	     3 ╱      ╲ 3
//	      p        x
//	    1 │    1 ╱   ╲ 3
//	      q     y     far(r=1)
//	    1 │  1╱  ╲1
//	side(r=5) big(r=7) one(r=1)
//
// far reaches only x (root is at distance 6 > dmax); big, one and
// side all reach the root at distance exactly 5 = dmax.
//
// Optimal (2 replicas): x serves 6 of big + far (load 7); the root
// serves 1 of big + one + side (load 7).
//
// Algorithm 3 (3 replicas): at y, temp holds 8 > W requests, so the
// eager rule places a server at y serving 7 of them; x must then be
// placed for far but stays under-filled (load 2), and the root is
// needed for side anyway. The proof of Theorem 6 asserts the requests
// served by the deeper y-server are "more constrained by distance"
// than those at the blocking node x — which fails here: big's
// requests could still have travelled to the root while far's cannot.
// The side branch matters: without it, x itself absorbs the leftovers
// and the gap closes.
func counterexample() *core.Instance {
	b := tree.NewBuilder()
	root := b.Root("root")
	p := b.Internal(root, 3, "p")
	q := b.Internal(p, 1, "q")
	b.Client(q, 1, 5, "side")
	x := b.Internal(root, 3, "x")
	y := b.Internal(x, 1, "y")
	b.Client(y, 1, 7, "big")
	b.Client(y, 1, 1, "one")
	b.Client(x, 3, 1, "far")
	return &core.Instance{Tree: b.MustBuild(), W: 7, DMax: 5}
}

// TestTheorem6Counterexample pins the reproduction finding: the
// faithful Algorithm 3 returns 3 replicas on an instance whose
// optimum is 2, and the Lazy variant recovers the optimum. If a code
// change ever makes Bin return 2 here, this test should be updated —
// and celebrated.
func TestTheorem6Counterexample(t *testing.T) {
	in := counterexample()
	opt, err := exact.SolveMultiple(in, exact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.NumReplicas() != 2 {
		t.Fatalf("exact optimum = %d, want 2", opt.NumReplicas())
	}
	eager, err := solve(t, in, (*Session).Bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(in, core.Multiple, eager); err != nil {
		t.Fatal(err)
	}
	if eager.NumReplicas() != 3 {
		t.Fatalf("faithful Algorithm 3 = %d replicas; the documented counterexample gives 3", eager.NumReplicas())
	}
	lazy, err := solve(t, in, (*Session).Lazy)
	if err != nil {
		t.Fatal(err)
	}
	if lazy.NumReplicas() != 2 {
		t.Fatalf("Lazy variant = %d replicas, want the optimum 2", lazy.NumReplicas())
	}
	best, err := solve(t, in, (*Session).Best)
	if err != nil {
		t.Fatal(err)
	}
	if best.NumReplicas() != 2 {
		t.Fatalf("Best = %d replicas, want 2", best.NumReplicas())
	}
}
