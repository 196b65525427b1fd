package single

import (
	"math/rand"
	"testing"
	"testing/quick"

	"replicatree/internal/core"
	"replicatree/internal/exact"
	"replicatree/internal/gen"
	"replicatree/internal/tree"
)

// buildPaper builds the toy instance used in several hand tests:
//
//	     root
//	    /    \
//	   a      b
//	  / \      \
//	c1:5 c2:7   c3:2     (all edges length 1)
func buildPaper(W, dmax int64) *core.Instance {
	b := tree.NewBuilder()
	root := b.Root("root")
	a := b.Internal(root, 1, "a")
	bb := b.Internal(root, 1, "b")
	b.Client(a, 1, 5, "c1")
	b.Client(a, 1, 7, "c2")
	b.Client(bb, 1, 2, "c3")
	return &core.Instance{Tree: b.MustBuild(), W: W, DMax: dmax}
}

// solve runs one algorithm on a fresh session and checks its answer
// with core.Verify, as the solver seam checks every engine's. The NoD
// family ignores dmax, and every instance these tests hand it has
// none, so each answer is checked against the instance it solved.
func solve(t testing.TB, in *core.Instance, alg func(*Session) (*core.Solution, error)) (*core.Solution, error) {
	t.Helper()
	var s Session
	s.Reset(in)
	sol, err := alg(&s)
	if err == nil {
		if verr := core.Verify(in, core.Single, sol); verr != nil {
			t.Fatalf("infeasible answer: %v", verr)
		}
	}
	return sol, err
}

func TestGenFeasibleHandInstance(t *testing.T) {
	for _, tc := range []struct {
		W, dmax int64
	}{
		{14, core.NoDistance},
		{10, core.NoDistance},
		{7, core.NoDistance},
		{7, 2},
		{7, 1},
		{7, 0},
		{100, 1},
	} {
		in := buildPaper(tc.W, tc.dmax)
		sol, err := solve(t, in, (*Session).Gen)
		if err != nil {
			t.Fatalf("solve(t, W=%d dmax=%d, (*Session).Gen): %v", tc.W, tc.dmax, err)
		}
		if err := core.Verify(in, core.Single, sol); err != nil {
			t.Fatalf("solve(t, W=%d dmax=%d, (*Session).Gen) infeasible: %v", tc.W, tc.dmax, err)
		}
	}
}

func TestGenAbsorbsEverythingAtRoot(t *testing.T) {
	// Total 14 ≤ W: one server at the root suffices and Gen finds it.
	in := buildPaper(14, core.NoDistance)
	sol, err := solve(t, in, (*Session).Gen)
	if err != nil {
		t.Fatal(err)
	}
	if sol.NumReplicas() != 1 || sol.Replicas[0] != in.Tree.Root() {
		t.Fatalf("want single root replica, got %v", sol)
	}
}

func TestGenDistanceForcesLocalServers(t *testing.T) {
	// dmax = 0: every client serves itself.
	in := buildPaper(20, 0)
	sol, err := solve(t, in, (*Session).Gen)
	if err != nil {
		t.Fatal(err)
	}
	if sol.NumReplicas() != 3 {
		t.Fatalf("dmax=0 should force 3 local servers, got %v", sol)
	}
	for _, a := range sol.Assignments {
		if a.Client != a.Server {
			t.Fatalf("dmax=0 assignment not local: %+v", a)
		}
	}
}

func TestGenRejectsOversizedClients(t *testing.T) {
	in := buildPaper(6, core.NoDistance) // c2 has 7 > 6
	if _, err := solve(t, in, (*Session).Gen); err == nil {
		t.Fatal("Gen should fail when some ri > W")
	}
	if _, err := solve(t, in, (*Session).NoD); err == nil {
		t.Fatal("NoD should fail when some ri > W")
	}
}

func TestNoDHandInstances(t *testing.T) {
	// W = 14: everything at the root.
	in := buildPaper(14, core.NoDistance)
	sol, err := solve(t, in, (*Session).NoD)
	if err != nil {
		t.Fatal(err)
	}
	if sol.NumReplicas() != 1 {
		t.Fatalf("W=14: want 1 replica, got %v", sol)
	}
	// W = 12: c1+c2 = 12 at a (or above), c3 elsewhere → 2 replicas
	// optimal; NoD guarantees ≤ 2·2 but should find 2 here.
	in = buildPaper(12, core.NoDistance)
	sol, err = solve(t, in, (*Session).NoD)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(in, core.Single, sol); err != nil {
		t.Fatal(err)
	}
	opt, err := exact.SolveSingle(in, exact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if opt.NumReplicas() != 2 {
		t.Fatalf("exact: want 2, got %d", opt.NumReplicas())
	}
	if sol.NumReplicas() > 2*opt.NumReplicas() {
		t.Fatalf("NoD %d > 2×opt %d", sol.NumReplicas(), opt.NumReplicas())
	}
}

// TestGenTightFamilyIm reproduces Fig. 3: single-gen places exactly
// m(Δ+1) replicas on Im while the optimum is m+1.
func TestGenTightFamilyIm(t *testing.T) {
	for _, delta := range []int{2, 3, 4} {
		for m := 1; m <= 4; m++ {
			res, err := gen.GadgetIm(m, delta)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := solve(t, res.Instance, (*Session).Gen)
			if err != nil {
				t.Fatalf("Im(m=%d,Δ=%d): %v", m, delta, err)
			}
			if sol.NumReplicas() != res.AlgoReplicas {
				t.Errorf("Im(m=%d,Δ=%d): Gen placed %d, paper says %d",
					m, delta, sol.NumReplicas(), res.AlgoReplicas)
			}
		}
	}
}

// TestGenTightFamilyImOptimum checks the instance's optimum is m+1
// (exact solver, small m).
func TestGenTightFamilyImOptimum(t *testing.T) {
	for _, delta := range []int{2, 3} {
		for m := 1; m <= 2; m++ {
			res, err := gen.GadgetIm(m, delta)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := exact.SolveSingle(res.Instance, exact.Options{})
			if err != nil {
				t.Fatalf("exact on Im(m=%d,Δ=%d): %v", m, delta, err)
			}
			if opt.NumReplicas() != res.OptReplicas {
				t.Errorf("Im(m=%d,Δ=%d): opt %d, paper says %d",
					m, delta, opt.NumReplicas(), res.OptReplicas)
			}
		}
	}
}

// TestNoDTightFamilyFig4 reproduces Fig. 4: single-nod places exactly
// 2K replicas while the optimum is K+1.
func TestNoDTightFamilyFig4(t *testing.T) {
	for k := 1; k <= 6; k++ {
		res, err := gen.GadgetFig4(k)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := solve(t, res.Instance, (*Session).NoD)
		if err != nil {
			t.Fatalf("Fig4(K=%d): %v", k, err)
		}
		if sol.NumReplicas() != res.AlgoReplicas {
			t.Errorf("Fig4(K=%d): NoD placed %d, paper says %d",
				k, sol.NumReplicas(), res.AlgoReplicas)
		}
	}
	// Optimum for small K.
	for k := 1; k <= 3; k++ {
		res, _ := gen.GadgetFig4(k)
		opt, err := exact.SolveSingle(res.Instance, exact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if opt.NumReplicas() != res.OptReplicas {
			t.Errorf("Fig4(K=%d): opt %d, paper says %d", k, opt.NumReplicas(), res.OptReplicas)
		}
	}
}

// randomSmall generates a random small instance for cross-validation
// against the exact solver.
func randomSmall(rng *rand.Rand, withDistance bool) *core.Instance {
	return gen.RandomInstance(rng, gen.TreeConfig{
		Internals:    1 + rng.Intn(4),
		MaxArity:     2 + rng.Intn(2),
		MaxDist:      3,
		MaxReq:       8,
		ExtraClients: rng.Intn(3),
	}, withDistance)
}

// TestGenApproximationBound property-checks Theorem 3: Gen never
// exceeds (Δ+1)·opt, and Δ·opt without distance constraints.
func TestGenApproximationBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 150; trial++ {
		withD := trial%2 == 0
		in := randomSmall(rng, withD)
		sol, err := solve(t, in, (*Session).Gen)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		opt, err := exact.SolveSingle(in, exact.Options{})
		if err != nil {
			t.Fatalf("trial %d exact: %v", trial, err)
		}
		delta := in.Tree.Arity()
		bound := (delta + 1) * opt.NumReplicas()
		if !withD {
			bound = delta * opt.NumReplicas()
		}
		if sol.NumReplicas() > bound {
			t.Fatalf("trial %d: Gen=%d exceeds bound %d (opt=%d Δ=%d withD=%v)\n%s",
				trial, sol.NumReplicas(), bound, opt.NumReplicas(), delta, withD, in.Tree)
		}
		if sol.NumReplicas() < opt.NumReplicas() {
			t.Fatalf("trial %d: Gen=%d below optimum %d — exact solver broken",
				trial, sol.NumReplicas(), opt.NumReplicas())
		}
	}
}

// TestNoDApproximationBound property-checks Theorem 4: NoD never
// exceeds 2·opt.
func TestNoDApproximationBound(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 150; trial++ {
		in := randomSmall(rng, false)
		sol, err := solve(t, in, (*Session).NoD)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		opt, err := exact.SolveSingle(in, exact.Options{})
		if err != nil {
			t.Fatalf("trial %d exact: %v", trial, err)
		}
		if sol.NumReplicas() > 2*opt.NumReplicas() {
			t.Fatalf("trial %d: NoD=%d exceeds 2×opt=%d\n%s",
				trial, sol.NumReplicas(), 2*opt.NumReplicas(), in.Tree)
		}
		if sol.NumReplicas() < opt.NumReplicas() {
			t.Fatalf("trial %d: NoD=%d below optimum %d", trial, sol.NumReplicas(), opt.NumReplicas())
		}
	}
}

// TestGenFeasibilityQuick uses testing/quick to fuzz instance shapes:
// every Gen solution must pass the verifier.
func TestGenFeasibilityQuick(t *testing.T) {
	f := func(seed int64, withDistance bool) bool {
		rng := rand.New(rand.NewSource(seed))
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    1 + rng.Intn(12),
			MaxArity:     2 + rng.Intn(4),
			MaxDist:      5,
			MaxReq:       20,
			ExtraClients: rng.Intn(8),
		}, withDistance)
		sol, err := solve(t, in, (*Session).Gen)
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

// TestNoDFeasibilityQuick: same for single-nod (NoD relaxation).
func TestNoDFeasibilityQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    1 + rng.Intn(12),
			MaxArity:     2 + rng.Intn(4),
			MaxDist:      5,
			MaxReq:       20,
			ExtraClients: rng.Intn(8),
		}, false)
		sol, err := solve(t, in, (*Session).NoD)
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

// TestNoDNeverWorseOnFig4ThanGen sanity-checks the refinement: on the
// Fig. 4 family Gen (NoD corollary mode) can be worse than NoD's
// grouping, never better than 2×opt.
func TestNoDBoundedOnImFamily(t *testing.T) {
	// NoD on the Im instances ignores distances; it must still be
	// feasible for the relaxed instance and within 2× the NoD optimum.
	for m := 1; m <= 2; m++ {
		res, err := gen.GadgetIm(m, 3)
		if err != nil {
			t.Fatal(err)
		}
		relaxed := &core.Instance{Tree: res.Instance.Tree, W: res.Instance.W, DMax: core.NoDistance}
		sol, err := solve(t, relaxed, (*Session).NoD)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := exact.SolveSingle(relaxed, exact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.NumReplicas() > 2*opt.NumReplicas() {
			t.Fatalf("Im relaxed: NoD=%d > 2×opt=%d", sol.NumReplicas(), 2*opt.NumReplicas())
		}
	}
}
