package replicatree_test

// Metamorphic tests: transformations of an instance with a known
// effect on the answer. These catch whole classes of bugs that
// example-based tests miss — unit-scaling errors, hidden dependence on
// node order, spurious sensitivity to inert clients.

import (
	"math/rand"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/hetero"
	"replicatree/internal/solver"
	"replicatree/internal/tree"
)

func smallInstance(rng *rand.Rand, withD bool) *core.Instance {
	return gen.RandomInstance(rng, gen.TreeConfig{
		Internals:    1 + rng.Intn(4),
		MaxArity:     2 + rng.Intn(2),
		MaxDist:      3,
		MaxReq:       9,
		ExtraClients: rng.Intn(3),
	}, withD)
}

// scaleRequests multiplies every request and W by k (distances are
// untouched), which must not change any replica count.
func scaleRequests(in *core.Instance, k int64) *core.Instance {
	b := tree.NewBuilder()
	ids := make(map[tree.NodeID]tree.NodeID)
	t := in.Tree
	ids[t.Root()] = b.Root(t.Label(t.Root()))
	t.PreOrder(func(j tree.NodeID) {
		if j == t.Root() {
			return
		}
		p := ids[t.Parent(j)]
		if t.IsClient(j) {
			ids[j] = b.Client(p, t.Dist(j), t.Requests(j)*k, t.Label(j))
		} else {
			ids[j] = b.Internal(p, t.Dist(j), t.Label(j))
		}
	})
	return &core.Instance{Tree: b.MustBuild(), W: in.W * k, DMax: in.DMax}
}

func TestMetamorphicRequestScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(9001))
	for trial := 0; trial < 30; trial++ {
		in := smallInstance(rng, trial%2 == 0)
		scaled := scaleRequests(in, 7)
		pairs := []struct {
			name string
			run  func(*core.Instance) (*core.Solution, error)
		}{
			{solver.SingleGen, viaEngine(solver.SingleGen)},
			{solver.MultipleBest, viaEngine(solver.MultipleBest)},
			{solver.ExactSingle, viaEngine(solver.ExactSingle)},
			{solver.ExactMultiple, viaEngine(solver.ExactMultiple)},
		}
		for _, p := range pairs {
			a, err := p.run(in)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, p.name, err)
			}
			b, err := p.run(scaled)
			if err != nil {
				t.Fatalf("trial %d %s scaled: %v", trial, p.name, err)
			}
			if a.NumReplicas() != b.NumReplicas() {
				t.Fatalf("trial %d %s: scaling requests by 7 changed |R| %d → %d",
					trial, p.name, a.NumReplicas(), b.NumReplicas())
			}
		}
		// Lower bounds scale-invariant too.
		if core.LowerBound(in) != core.LowerBound(scaled) {
			t.Fatalf("trial %d: LowerBound not scale invariant", trial)
		}
	}
}

// addIdleClients attaches zero-request clients, which must not change
// any optimum (they are satisfied vacuously).
func TestMetamorphicIdleClientsInert(t *testing.T) {
	rng := rand.New(rand.NewSource(9002))
	for trial := 0; trial < 30; trial++ {
		in := smallInstance(rng, trial%2 == 0)
		b := tree.NewBuilder()
		t0 := in.Tree
		ids := make(map[tree.NodeID]tree.NodeID)
		ids[t0.Root()] = b.Root("")
		t0.PreOrder(func(j tree.NodeID) {
			if j == t0.Root() {
				return
			}
			p := ids[t0.Parent(j)]
			if t0.IsClient(j) {
				ids[j] = b.Client(p, t0.Dist(j), t0.Requests(j), "")
			} else {
				ids[j] = b.Internal(p, t0.Dist(j), "")
			}
		})
		// Idle clients at the root and at a random internal node.
		b.Client(ids[t0.Root()], 1, 0, "idle1")
		internals := t0.Internals()
		b.Client(ids[internals[rng.Intn(len(internals))]], 2, 0, "idle2")
		padded := &core.Instance{Tree: b.MustBuild(), W: in.W, DMax: in.DMax}

		o1, err := viaEngine(solver.ExactMultiple)(in)
		if err != nil {
			t.Fatal(err)
		}
		o2, err := viaEngine(solver.ExactMultiple)(padded)
		if err != nil {
			t.Fatal(err)
		}
		if o1.NumReplicas() != o2.NumReplicas() {
			t.Fatalf("trial %d: idle clients changed the optimum %d → %d",
				trial, o1.NumReplicas(), o2.NumReplicas())
		}
		s1, err := viaEngine(solver.MultipleBest)(in)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := viaEngine(solver.MultipleBest)(padded)
		if err != nil {
			t.Fatal(err)
		}
		if s1.NumReplicas() != s2.NumReplicas() {
			t.Fatalf("trial %d: idle clients changed Best %d → %d",
				trial, s1.NumReplicas(), s2.NumReplicas())
		}
	}
}

// reverseChildren rebuilds the tree with children in reverse order;
// exact optima must be unchanged (heuristics may legitimately differ).
func TestMetamorphicChildOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(9003))
	for trial := 0; trial < 25; trial++ {
		in := smallInstance(rng, trial%2 == 0)
		b := tree.NewBuilder()
		t0 := in.Tree
		ids := make(map[tree.NodeID]tree.NodeID)
		ids[t0.Root()] = b.Root("")
		var rec func(j tree.NodeID)
		rec = func(j tree.NodeID) {
			ch := t0.Children(j)
			for i := len(ch) - 1; i >= 0; i-- {
				c := ch[i]
				if t0.IsClient(c) {
					ids[c] = b.Client(ids[j], t0.Dist(c), t0.Requests(c), "")
				} else {
					ids[c] = b.Internal(ids[j], t0.Dist(c), "")
					rec(c)
				}
			}
		}
		rec(t0.Root())
		rev := &core.Instance{Tree: b.MustBuild(), W: in.W, DMax: in.DMax}

		for _, name := range []string{solver.ExactSingle, solver.ExactMultiple} {
			solve := viaEngine(name)
			a, err := solve(in)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			bsol, err := solve(rev)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if a.NumReplicas() != bsol.NumReplicas() {
				t.Fatalf("trial %d %s: child order changed the optimum %d → %d",
					trial, name, a.NumReplicas(), bsol.NumReplicas())
			}
		}
	}
}

// TestMetamorphicRelaxingDMaxNeverHurts: increasing dmax can only
// decrease (or keep) the optimum.
func TestMetamorphicRelaxingDMaxNeverHurts(t *testing.T) {
	rng := rand.New(rand.NewSource(9004))
	for trial := 0; trial < 25; trial++ {
		in := smallInstance(rng, true)
		relaxed := &core.Instance{Tree: in.Tree, W: in.W, DMax: in.DMax * 2}
		nod := &core.Instance{Tree: in.Tree, W: in.W, DMax: core.NoDistance}
		var prev = 1 << 30
		for _, inst := range []*core.Instance{in, relaxed, nod} {
			opt, err := viaEngine(solver.ExactMultiple)(inst)
			if err != nil {
				t.Fatal(err)
			}
			if opt.NumReplicas() > prev {
				t.Fatalf("trial %d: relaxing dmax increased the optimum", trial)
			}
			prev = opt.NumReplicas()
		}
	}
}

// TestMetamorphicRaisingWNeverHurts: increasing W can only decrease
// (or keep) the optimum.
func TestMetamorphicRaisingWNeverHurts(t *testing.T) {
	rng := rand.New(rand.NewSource(9005))
	for trial := 0; trial < 25; trial++ {
		in := smallInstance(rng, trial%2 == 0)
		var prev = 1 << 30
		for _, w := range []int64{in.W, in.W + 3, 2 * in.W} {
			opt, err := viaEngine(solver.ExactMultiple)(&core.Instance{Tree: in.Tree, W: w, DMax: in.DMax})
			if err != nil {
				t.Fatal(err)
			}
			if opt.NumReplicas() > prev {
				t.Fatalf("trial %d: raising W to %d increased the optimum", trial, w)
			}
			prev = opt.NumReplicas()
		}
	}
}

// TestOversizedClientsViaHetero: the NP-hard ri > W regime (Theorem 5)
// is served by the hetero machinery on uniform capacities; it must
// match the exact core solver on small instances, including I6
// gadgets.
func TestOversizedClientsViaHetero(t *testing.T) {
	// I6 with the smallest certificate instance.
	as := []int64{1, 1, 1, 1}
	in, K, err := gen.GadgetI6(as)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := hetero.Greedy(hetero.FromUniform(in))
	if err != nil {
		t.Fatal(err)
	}
	if err := hetero.FromUniform(in).Verify(sol); err != nil {
		t.Fatal(err)
	}
	if sol.NumReplicas() < K {
		t.Fatalf("greedy %d below the gadget optimum %d — impossible", sol.NumReplicas(), K)
	}

	// Random ri > W instances.
	rng := rand.New(rand.NewSource(9006))
	for trial := 0; trial < 25; trial++ {
		base := gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    1 + rng.Intn(3),
			MaxArity:     2,
			MaxDist:      2,
			MaxReq:       9,
			ExtraClients: rng.Intn(2),
		}, false)
		// Shrink W below the max request to enter the oversized
		// regime, keeping Multiple feasible (every client has ≥ 2
		// eligible nodes on its path in a NoD instance of depth ≥ 1).
		in := &core.Instance{Tree: base.Tree, W: (base.Tree.MaxRequests() + 1) / 2, DMax: core.NoDistance}
		// Instance.Feasible is only a per-client necessary condition;
		// two oversized clients may compete for the same ancestors.
		// Use the exact solver as the feasibility arbiter and skip
		// genuinely infeasible draws.
		opt, err := viaEngine(solver.ExactMultiple)(in)
		if err != nil {
			continue
		}
		g, err := hetero.Greedy(hetero.FromUniform(in))
		if err != nil {
			t.Fatalf("trial %d: exact feasible but greedy errored: %v", trial, err)
		}
		if g.NumReplicas() < opt.NumReplicas() {
			t.Fatalf("trial %d: greedy beat the optimum", trial)
		}
	}
}
