package solver_test

// Routing pins for the auto → decomp handoff and the decomp engine's
// contract, run from an external test package as the shipped binaries
// reach the registry.

import (
	"context"
	"math/rand"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/multiple"
	"replicatree/internal/solver"
	"replicatree/internal/tree"
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

// TestEngineRegistration: the registry resolves "decomp" and produces
// verified reports with a filled bound and no work: decomp is
// polynomial, and Report.Work (and a certificate's work) counts search
// steps only.
func TestEngineRegistration(t *testing.T) {
	eng, err := solver.Lookup(solver.Decomp)
	if err != nil {
		t.Fatalf("decomp not registered: %v", err)
	}
	caps := eng.Capabilities()
	if caps.MaxNodes != 0 || caps.Cost != solver.CostPolynomial || caps.Policy != core.Multiple {
		t.Fatalf("unexpected capability document: %+v", caps)
	}
	rng := rand.New(rand.NewSource(4))
	in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 60, MaxArity: 3, ExtraClients: 40}, true)
	rep, err := eng.Solve(context.Background(), solver.Request{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(in, rep.Policy, rep.Solution); err != nil {
		t.Fatalf("engine solution failed verification: %v", err)
	}
	if rep.LowerBound != core.LowerBound(in) {
		t.Fatalf("report bound %d, want %d", rep.LowerBound, core.LowerBound(in))
	}
	if rep.Work != 0 {
		t.Fatalf("report carries work %d", rep.Work)
	}
	c, err := solver.Certify(in, &rep)
	if err != nil {
		t.Fatal(err)
	}
	if c.Work != 0 || c.Optimality != nil {
		t.Fatalf("certificate carries work %d, optimality %+v", c.Work, c.Optimality)
	}
	// A Single-policy request must be rejected: decomp's coordination
	// splits client flows across cut edges.
	if _, err := eng.Solve(context.Background(), solver.Request{Instance: in, Policy: solver.WantSingle}); err == nil {
		t.Fatal("Single-policy request accepted")
	}
}

// TestClientAboveWRefusedByDecompAndAuto: a huge instance with one
// client at W + 1 gets Greedy's refusal, verbatim, from the decomp
// engine and from auto, which routes it there by size and no longer
// falls through to the whole-tree portfolio.
func TestClientAboveWRefusedByDecompAndAuto(t *testing.T) {
	in := hugeInstance(t)
	clients := in.Tree.Clients()
	ed := tree.NewEditor(in.Tree)
	if err := ed.SetRequests(clients[len(clients)-1], in.W+1); err != nil {
		t.Fatal(err)
	}
	in = &core.Instance{Tree: ed.Tree(), W: in.W, DMax: in.DMax}
	want := multiple.CheckGreedy(in)
	if want == nil {
		t.Fatal("fixture has no client above W")
	}
	for _, name := range []string{solver.Decomp, solver.Auto} {
		_, err := solver.MustLookup(name).Solve(context.Background(), solver.Request{Instance: in})
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%s: got %v, want %q", name, err, want)
		}
	}
}
