package single

import (
	"math/rand"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
)

// TestPushUpImprovesFig4: on the Fig. 4 family, single-nod leaves the
// K one-request clients on K distinct servers' smaller halves; PushUp
// cannot beat the optimum but must never hurt.
func TestPushUpNeverHurts(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 120; trial++ {
		withD := trial%3 == 0
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    1 + rng.Intn(8),
			MaxArity:     2 + rng.Intn(3),
			MaxDist:      4,
			MaxReq:       12,
			ExtraClients: rng.Intn(5),
		}, withD)
		base, err := solve(t, in, (*Session).Gen)
		if err != nil {
			t.Fatal(err)
		}
		up := PushUp(in, base)
		if err := core.Verify(in, core.Single, up); err != nil {
			t.Fatalf("trial %d: PushUp broke feasibility: %v", trial, err)
		}
		if up.NumReplicas() > base.NumReplicas() {
			t.Fatalf("trial %d: PushUp increased replicas %d → %d",
				trial, base.NumReplicas(), up.NumReplicas())
		}
	}
}

func TestPushUpMergesIntoAncestor(t *testing.T) {
	// Trivial solution on the paper toy: everything fits in one root
	// server, but R = C has three. PushUp has no ancestor servers to
	// merge into (clients are the only replicas), so it keeps 3 — then
	// starting from a solution with a root server it folds everything.
	in := buildPaper(14, core.NoDistance)
	triv := core.Trivial(in)
	if got := PushUp(in, triv).NumReplicas(); got != 3 {
		t.Fatalf("no ancestor server to merge into: want 3, got %d", got)
	}
	// Seed a solution with servers at root and both internals.
	sol, err := solve(t, in, (*Session).NoD)
	if err != nil {
		t.Fatal(err)
	}
	up := PushUp(in, sol)
	if up.NumReplicas() > sol.NumReplicas() {
		t.Fatal("PushUp hurt")
	}
}

func TestPushUpRespectsDistance(t *testing.T) {
	// c1 at distance 3 from a and 4 from root; dmax = 3 forbids
	// re-homing c1's server from a to root.
	in := buildPaper(100, 2)
	sol, err := solve(t, in, (*Session).Gen)
	if err != nil {
		t.Fatal(err)
	}
	up := PushUp(in, sol)
	if err := core.Verify(in, core.Single, up); err != nil {
		t.Fatalf("PushUp violated dmax: %v", err)
	}
}

func TestPushUpOnFig4(t *testing.T) {
	res, err := gen.GadgetFig4(4)
	if err != nil {
		t.Fatal(err)
	}
	in := res.Instance
	sol, err := solve(t, in, (*Session).NoD)
	if err != nil {
		t.Fatal(err)
	}
	up := PushUp(in, sol)
	if err := core.Verify(in, core.Single, up); err != nil {
		t.Fatal(err)
	}
	if up.NumReplicas() > sol.NumReplicas() {
		t.Fatal("PushUp hurt on Fig4")
	}
}
