package single

import (
	"math/rand"
	"testing"
	"testing/quick"

	"replicatree/internal/core"
	"replicatree/internal/exact"
	"replicatree/internal/gen"
)

// TestPassUpOptimalOnFig4: the pass-up variant solves the Fig. 4
// family optimally — the instance class where Algorithm 2 is stuck at
// ratio 2.
func TestPassUpOptimalOnFig4(t *testing.T) {
	for k := 1; k <= 8; k++ {
		res, err := gen.GadgetFig4(k)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := solve(t, res.Instance, (*Session).PassUp)
		if err != nil {
			t.Fatal(err)
		}
		if sol.NumReplicas() != res.OptReplicas {
			t.Errorf("Fig4(K=%d): pass-up = %d, optimum %d", k, sol.NumReplicas(), res.OptReplicas)
		}
	}
}

// TestPassUpFeasibilityQuick: always feasible, always ≥ lower bound.
func TestPassUpFeasibilityQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    1 + rng.Intn(12),
			MaxArity:     2 + rng.Intn(4),
			MaxDist:      5,
			MaxReq:       20,
			ExtraClients: rng.Intn(8),
		}, false)
		sol, err := solve(t, in, (*Session).PassUp)
		if err != nil {
			return false
		}
		return core.Verify(in, core.Single, sol) == nil &&
			sol.NumReplicas() >= core.LowerBound(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestNoDBestWithinConjecturedRatio probes the paper's conjecture: on
// random binary Single-NoD instances, the better of Algorithm 2 and
// the pass-up variant stays within 3/2 of the optimum. This is an
// empirical observation, not a proof — if this test ever fails, the
// failing instance is a counterexample worth publishing, so the test
// prints it loudly.
func TestNoDBestWithinConjecturedRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(31415))
	worst := 0.0
	for trial := 0; trial < 300; trial++ {
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    1 + rng.Intn(4),
			MaxArity:     2,
			MaxDist:      3,
			MaxReq:       9,
			ExtraClients: rng.Intn(3),
		}, false)
		sol, err := solve(t, in, (*Session).Best)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		opt, err := exact.SolveSingle(in, exact.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ratio := float64(sol.NumReplicas()) / float64(opt.NumReplicas())
		if ratio > worst {
			worst = ratio
		}
		if ratio > 1.5+1e-9 {
			t.Fatalf("trial %d: NoDBest ratio %.3f > 3/2 — empirical counterexample to the conjectured bound!\n%s\nW=%d algo=%d opt=%d",
				trial, ratio, in.Tree, in.W, sol.NumReplicas(), opt.NumReplicas())
		}
	}
	t.Logf("worst NoDBest ratio over 300 binary NoD instances: %.3f", worst)
}

// TestNoDBestNeverWorseThanNoD: the combination inherits the proven
// 2-approximation.
func TestNoDBestNeverWorseThanNoD(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	for trial := 0; trial < 100; trial++ {
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    1 + rng.Intn(8),
			MaxArity:     2 + rng.Intn(3),
			MaxDist:      4,
			MaxReq:       12,
			ExtraClients: rng.Intn(5),
		}, false)
		nod, err := solve(t, in, (*Session).NoD)
		if err != nil {
			t.Fatal(err)
		}
		best, err := solve(t, in, (*Session).Best)
		if err != nil {
			t.Fatal(err)
		}
		if best.NumReplicas() > nod.NumReplicas() {
			t.Fatalf("trial %d: NoDBest %d > NoD %d", trial, best.NumReplicas(), nod.NumReplicas())
		}
	}
}

func TestPassUpRejectsOversized(t *testing.T) {
	in := buildPaper(6, core.NoDistance) // c2 = 7 > 6
	if _, err := solve(t, in, (*Session).PassUp); err == nil {
		t.Fatal("pass-up should reject ri > W")
	}
}

func TestPassUpSingleRootServer(t *testing.T) {
	in := buildPaper(14, core.NoDistance)
	sol, err := solve(t, in, (*Session).PassUp)
	if err != nil {
		t.Fatal(err)
	}
	if sol.NumReplicas() != 1 || sol.Replicas[0] != in.Tree.Root() {
		t.Fatalf("want single root replica, got %v", sol)
	}
}
