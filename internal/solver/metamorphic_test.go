package solver

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/exact"
	"replicatree/internal/gen"
)

// TestEverySolverVerifies is the cross-solver metamorphic check: on a
// shared instance set, every registered solver either returns an error
// or a solution that passes the core feasibility verifier under the
// solver's declared policy. It also pins the partial order the
// registry promises: no Multiple-policy solver beats exact-multiple,
// no Single-policy solver beats exact-single, and the Multiple optimum
// never exceeds the Single optimum.
func TestEverySolverVerifies(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var instances []*core.Instance
	for i := 0; i < 8; i++ {
		instances = append(instances, gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    1 + rng.Intn(4),
			MaxArity:     2 + rng.Intn(2),
			MaxDist:      3,
			MaxReq:       9,
			ExtraClients: rng.Intn(3),
		}, i%2 == 1))
	}
	ctx := context.Background()
	for ii, in := range instances {
		optimum := map[core.Policy]int{}
		for _, name := range []string{ExactSingle, ExactMultiple} {
			eng := MustLookup(name)
			rep, err := eng.Solve(ctx, Request{Instance: in})
			if err != nil {
				t.Fatalf("instance %d: %s: %v", ii, name, err)
			}
			optimum[eng.Capabilities().Policy] = rep.Solution.NumReplicas()
		}
		if optimum[core.Multiple] > optimum[core.Single] {
			t.Errorf("instance %d: Multiple optimum %d above Single optimum %d",
				ii, optimum[core.Multiple], optimum[core.Single])
		}
		for _, eng := range Engines() {
			rep, err := eng.Solve(ctx, Request{Instance: in})
			if err != nil {
				// Declining an instance (NoD-gated solvers on finite
				// dmax, budget exhaustion) is legitimate; returning an
				// infeasible solution is not.
				continue
			}
			caps, sol := eng.Capabilities(), rep.Solution
			pol := caps.Policy
			if verr := core.Verify(in, pol, sol); verr != nil {
				t.Errorf("instance %d: %s: infeasible solution: %v", ii, eng.Name(), verr)
			}
			if sol.NumReplicas() < optimum[pol] {
				t.Errorf("instance %d: %s returned %d replicas, below the %s optimum %d",
					ii, eng.Name(), sol.NumReplicas(), pol, optimum[pol])
			}
			if caps.Exact && sol.NumReplicas() != optimum[pol] {
				t.Errorf("instance %d: exact solver %s returned %d, optimum is %d",
					ii, eng.Name(), sol.NumReplicas(), optimum[pol])
			}
		}
	}
}

// TestExactBudgetSurfacesAsError pins that budget exhaustion inside a
// Batch comes back as a per-task error, not a bogus solution.
func TestExactBudgetSurfacesAsError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 6, MaxArity: 3, MaxDist: 3, MaxReq: 9, ExtraClients: 4}, false)
	task := Task{Engine: MustLookup(ExactSingle), Request: Request{Instance: in, Budget: 2}}
	results, st := Batch(context.Background(), []Task{task}, Options{})
	if st.Failed != 1 {
		t.Fatalf("expected budget failure, got %+v", st)
	}
	if !errors.Is(results[0].Err, exact.ErrBudget) {
		t.Fatalf("err = %v, want exact.ErrBudget", results[0].Err)
	}
}
