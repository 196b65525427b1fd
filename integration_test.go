package replicatree_test

// Cross-module integration tests: the full pipeline from instance
// generation through JSON round-trips, every solver, post-passes,
// verification, and simulation replay — the paths a downstream user
// exercises end to end.

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/hetero"
	"replicatree/internal/lp"
	"replicatree/internal/multiple"
	"replicatree/internal/sim"
	"replicatree/internal/solver"
)

// viaEngine returns a registered engine's solve as a function of the
// instance. The engine validates the instance and verifies its answer
// before returning it.
func viaEngine(name string) func(*core.Instance) (*core.Solution, error) {
	eng := solver.MustLookup(name)
	return func(in *core.Instance) (*core.Solution, error) {
		rep, err := eng.Solve(context.Background(), solver.Request{Instance: in, NoBound: true})
		return rep.Solution, err
	}
}

// TestPipelineJSONSolveSimulate: generate → marshal → unmarshal →
// solve with every algorithm → verify → simulate.
func TestPipelineJSONSolveSimulate(t *testing.T) {
	rng := rand.New(rand.NewSource(1001))
	for trial := 0; trial < 20; trial++ {
		orig := gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    2 + rng.Intn(8),
			MaxArity:     2,
			MaxDist:      4,
			MaxReq:       12,
			ExtraClients: rng.Intn(5),
		}, trial%2 == 0)

		data, err := json.Marshal(orig)
		if err != nil {
			t.Fatal(err)
		}
		var in core.Instance
		if err := json.Unmarshal(data, &in); err != nil {
			t.Fatal(err)
		}
		if in.W != orig.W || in.DMax != orig.DMax || in.Tree.Len() != orig.Tree.Len() {
			t.Fatal("instance round trip changed parameters")
		}

		algos := []struct {
			name string
			pol  core.Policy
		}{
			{solver.SingleGen, core.Single},
			{solver.SingleNoD, core.Single},
			{solver.MultipleBin, core.Multiple},
			{solver.MultipleLazy, core.Multiple},
			{solver.MultipleBest, core.Multiple},
		}
		for _, a := range algos {
			// single-nod solves the NoD relaxation, the only instances
			// its engine accepts.
			vin := &in
			if a.name == solver.SingleNoD {
				vin = &core.Instance{Tree: in.Tree, W: in.W, DMax: core.NoDistance}
			}
			sol, err := viaEngine(a.name)(vin)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, a.name, err)
			}
			if err := core.Verify(vin, a.pol, sol); err != nil {
				t.Fatalf("trial %d %s: %v", trial, a.name, err)
			}
			m, err := sim.Run(vin, a.pol, sol, sim.Config{Steps: 5})
			if err != nil {
				t.Fatalf("trial %d %s sim: %v", trial, a.name, err)
			}
			if m.TotalServed != vin.Tree.TotalRequests()*5 {
				t.Fatalf("trial %d %s: simulated service mismatch", trial, a.name)
			}
		}
	}
}

// TestBoundsSandwichOptimum: every lower bound ≤ Multiple optimum ≤
// Single optimum ≤ heuristics, on the same instances.
func TestBoundsSandwichOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(1002))
	for trial := 0; trial < 40; trial++ {
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    1 + rng.Intn(4),
			MaxArity:     2 + rng.Intn(2),
			MaxDist:      3,
			MaxReq:       9,
			ExtraClients: rng.Intn(3),
		}, trial%2 == 0)
		optM, err := viaEngine(solver.ExactMultiple)(in)
		if err != nil {
			t.Fatal(err)
		}
		optS, err := viaEngine(solver.ExactSingle)(in)
		if err != nil {
			t.Fatal(err)
		}
		gen1, err := viaEngine(solver.SingleGen)(in)
		if err != nil {
			t.Fatal(err)
		}
		lpLB, err := lp.LowerBound(in)
		if err != nil {
			t.Fatal(err)
		}
		vol, comb := core.VolumeLowerBound(in), core.LowerBound(in)
		m, s, g := optM.NumReplicas(), optS.NumReplicas(), gen1.NumReplicas()
		for name, lb := range map[string]int{"volume": vol, "combinatorial": comb, "lp": lpLB} {
			if lb > m {
				t.Fatalf("trial %d: %s bound %d > Multiple optimum %d", trial, name, lb, m)
			}
		}
		if m > s {
			t.Fatalf("trial %d: Multiple optimum %d > Single optimum %d", trial, m, s)
		}
		if s > g {
			t.Fatalf("trial %d: Single optimum %d > single-gen %d", trial, s, g)
		}
	}
}

// TestHeteroUniformAgreesWithBest: lifting a uniform instance into the
// hetero solver and solving exactly agrees with the core exact solver,
// and multiple-best never beats it.
func TestHeteroUniformAgreesWithBest(t *testing.T) {
	rng := rand.New(rand.NewSource(1003))
	for trial := 0; trial < 25; trial++ {
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    1 + rng.Intn(4),
			MaxArity:     2,
			MaxDist:      3,
			MaxReq:       9,
			ExtraClients: rng.Intn(3),
		}, trial%2 == 0)
		h, err := hetero.Solve(hetero.FromUniform(in), 0)
		if err != nil {
			t.Fatal(err)
		}
		c, err := viaEngine(solver.ExactMultiple)(in)
		if err != nil {
			t.Fatal(err)
		}
		if h.NumReplicas() != c.NumReplicas() {
			t.Fatalf("trial %d: hetero %d != core %d", trial, h.NumReplicas(), c.NumReplicas())
		}
		best, err := viaEngine(solver.MultipleBest)(in)
		if err != nil {
			t.Fatal(err)
		}
		if best.NumReplicas() < c.NumReplicas() {
			t.Fatalf("trial %d: heuristic beat the optimum", trial)
		}
	}
}

// TestLatencyPassKeepsObjective: the latency post-pass never changes
// the replica count and never hurts the primary objective across the
// whole pipeline.
func TestLatencyPassKeepsObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(1004))
	for trial := 0; trial < 25; trial++ {
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    2 + rng.Intn(6),
			MaxArity:     2,
			MaxDist:      4,
			MaxReq:       12,
			ExtraClients: rng.Intn(4),
		}, trial%2 == 0)
		sol, err := viaEngine(solver.MultipleBest)(in)
		if err != nil {
			t.Fatal(err)
		}
		tuned, err := multiple.MinimizeLatency(in, sol)
		if err != nil {
			t.Fatal(err)
		}
		if tuned.NumReplicas() != sol.NumReplicas() {
			t.Fatal("latency pass changed the replica count")
		}
		if multiple.TotalDistance(in.Tree, tuned) > multiple.TotalDistance(in.Tree, sol) {
			t.Fatal("latency pass worsened total distance")
		}
		// And the tuned solution still replays cleanly.
		if _, err := sim.Run(in, core.Multiple, tuned, sim.Config{Steps: 3}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGadgetsEndToEnd: every gadget flows through JSON and the
// matching algorithm.
func TestGadgetsEndToEnd(t *testing.T) {
	im, err := gen.GadgetIm(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(im.Instance)
	if err != nil {
		t.Fatal(err)
	}
	var in core.Instance
	if err := json.Unmarshal(data, &in); err != nil {
		t.Fatal(err)
	}
	sol, err := viaEngine(solver.SingleGen)(&in)
	if err != nil {
		t.Fatal(err)
	}
	if sol.NumReplicas() != im.AlgoReplicas {
		t.Fatalf("Im through JSON: %d != %d", sol.NumReplicas(), im.AlgoReplicas)
	}

	f4, err := gen.GadgetFig4(5)
	if err != nil {
		t.Fatal(err)
	}
	nod, err := viaEngine(solver.SingleNoD)(f4.Instance)
	if err != nil {
		t.Fatal(err)
	}
	if nod.NumReplicas() != f4.AlgoReplicas {
		t.Fatalf("Fig4: %d != %d", nod.NumReplicas(), f4.AlgoReplicas)
	}
}
