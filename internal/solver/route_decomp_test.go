package solver_test

// Routing pins for the auto → decomp handoff. These live in an
// external test package because decomp imports solver: the engine can
// only reach the registry through this package's import graph, exactly
// as it does in the shipped binaries.

import (
	"context"
	"math/rand"
	"testing"

	"replicatree/internal/core"
	_ "replicatree/internal/decomp" // registers the decomp engine
	"replicatree/internal/gen"
	"replicatree/internal/solver"
)

func smallInstance(t *testing.T) *core.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(13))
	return gen.RandomInstance(rng, gen.TreeConfig{Internals: 30, MaxArity: 3, ExtraClients: 20}, false)
}

// hugeInstance generates an instance above the
// routing threshold.
func hugeInstance(t *testing.T) *core.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	fi, err := gen.RandomFlatInstance(rng, 40000, gen.TreeConfig{}, false)
	if err != nil {
		t.Fatal(err)
	}
	in := &core.Instance{Tree: fi.Flat, W: fi.W, DMax: fi.DMax}
	if in.Tree.Len() < 32768 {
		t.Fatalf("fixture too small for the routing threshold: %d nodes", in.Tree.Len())
	}
	return in
}

func TestAutoRoutesSmallAwayFromDecomp(t *testing.T) {
	auto := solver.MustLookup(solver.Auto)
	rep, err := auto.Solve(context.Background(), solver.Request{Instance: smallInstance(t)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine == solver.Decomp {
		t.Fatal("small instance routed to decomp by default")
	}
}

// TestAutoRoutesHugeToDecomp: size alone routes an instance to decomp,
// and auto's own report carries the bound its piece solves skip.
func TestAutoRoutesHugeToDecomp(t *testing.T) {
	in := hugeInstance(t)
	auto := solver.MustLookup(solver.Auto)
	rep, err := auto.Solve(context.Background(), solver.Request{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine != solver.Decomp {
		t.Fatalf("oversized instance routed to %q, want %q", rep.Engine, solver.Decomp)
	}
	if err := core.Verify(in, rep.Policy, rep.Solution); err != nil {
		t.Fatalf("routed solution failed verification: %v", err)
	}
	if rep.LowerBound != core.LowerBound(in) {
		t.Fatalf("routed report bound %d, want %d", rep.LowerBound, core.LowerBound(in))
	}
	if rep.Work != 0 {
		t.Fatalf("routed report carries work %d; decomp has no search steps", rep.Work)
	}
}

// TestAutoWantSingleSkipsDecompRouting: decomp only produces Multiple
// placements, so an oversized WantSingle request must bypass the
// routing block instead of failing inside it.
func TestAutoWantSingleSkipsDecompRouting(t *testing.T) {
	in := hugeInstance(t)
	auto := solver.MustLookup(solver.Auto)
	rep, err := auto.Solve(context.Background(), solver.Request{Instance: in, Policy: solver.WantSingle})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Engine == solver.Decomp {
		t.Fatal("WantSingle routed to decomp")
	}
	if rep.Policy != core.Single {
		t.Fatalf("WantSingle returned policy %v", rep.Policy)
	}
}

// TestMaxNodesGate pins the sized registrations: whole-tree engines
// now carry explicit node ceilings so the portfolio never races them
// on oversized instances.
func TestMaxNodesGate(t *testing.T) {
	for name, want := range map[string]int{
		solver.ExactSingle:   192,
		solver.ExactMultiple: 192,
		solver.LPRound:       4096,
		solver.Decomp:        0,
	} {
		caps := solver.MustLookup(name).Capabilities()
		if caps.MaxNodes != want {
			t.Errorf("%s: MaxNodes %d, want %d", name, caps.MaxNodes, want)
		}
	}
}
