package delta

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/multiple"
	"replicatree/internal/solver"
	"replicatree/internal/tree"
)

func smallInstance(t *testing.T) *core.Instance {
	t.Helper()
	b := tree.NewBuilder()
	root := b.Root("root")
	n1 := b.Internal(root, 2, "n1")
	n2 := b.Internal(root, 1, "n2")
	b.Client(n1, 1, 4, "c1")
	b.Client(n1, 2, 3, "c2")
	b.Client(n2, 1, 5, "c3")
	b.Client(n2, 3, 2, "c4")
	return &core.Instance{Tree: b.MustBuild(), W: 7, DMax: 4}
}

// reportsEqual compares the fields a cold re-solve must reproduce
// (Elapsed and Work are timing/engine artifacts).
func reportsEqual(t *testing.T, tag string, got, want solver.Report) {
	t.Helper()
	if got.Solution == nil || want.Solution == nil {
		t.Fatalf("%s: nil solution (got %v, want %v)", tag, got.Solution, want.Solution)
	}
	if !slices.Equal(got.Solution.Replicas, want.Solution.Replicas) {
		t.Errorf("%s: replicas %v, want %v", tag, got.Solution.Replicas, want.Solution.Replicas)
	}
	if !slices.Equal(got.Solution.Assignments, want.Solution.Assignments) {
		t.Errorf("%s: assignments differ\n got: %v\nwant: %v", tag, got.Solution.Assignments, want.Solution.Assignments)
	}
	if got.Policy != want.Policy || got.LowerBound != want.LowerBound ||
		got.Gap != want.Gap || got.Proved != want.Proved || got.Engine != want.Engine {
		t.Errorf("%s: report block (policy=%v lb=%d gap=%v proved=%v engine=%s), want (%v %d %v %v %s)",
			tag, got.Policy, got.LowerBound, got.Gap, got.Proved, got.Engine,
			want.Policy, want.LowerBound, want.Gap, want.Proved, want.Engine)
	}
}

// churnEqual compares a session churn with a PlanDelta-derived twin.
func churnEqual(t *testing.T, tag string, got *multiple.Churn, want multiple.Churn) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: report carries no churn", tag)
	}
	if !slices.Equal(got.Added, want.Added) || !slices.Equal(got.Removed, want.Removed) ||
		got.MovedRequests != want.MovedRequests {
		t.Errorf("%s: churn %+v, want %+v", tag, *got, want)
	}
}

// randomMutation draws one valid mutation against the session's
// current instance shape.
func randomMutation(rng *rand.Rand, in *core.Instance, allowStructural bool) Mutation {
	t := in.Tree
	var clients, internals []tree.NodeID
	for j := 0; j < t.Len(); j++ {
		id := tree.NodeID(j)
		if t.IsClient(id) {
			clients = append(clients, id)
		} else {
			internals = append(internals, id)
		}
	}
	for {
		switch rng.Intn(6) {
		case 0:
			return Mutation{Op: OpSetRequest, Node: clients[rng.Intn(len(clients))], Requests: rng.Int63n(in.W + 1)}
		case 1:
			return Mutation{Op: OpRemoveClient, Node: clients[rng.Intn(len(clients))]}
		case 2:
			if !allowStructural {
				continue
			}
			return Mutation{
				Op: OpAddClient, Parent: internals[rng.Intn(len(internals))],
				Dist: rng.Int63n(4), Requests: rng.Int63n(in.W + 1), Label: "grown",
			}
		case 3:
			// Non-root node: every client qualifies; internals only if
			// not the root.
			j := clients[rng.Intn(len(clients))]
			return Mutation{Op: OpSetEdgeLength, Node: j, Dist: rng.Int63n(5)}
		case 4:
			if len(internals) < 2 {
				continue
			}
			j := internals[1+rng.Intn(len(internals)-1)]
			return Mutation{Op: OpSetEdgeLength, Node: j, Dist: rng.Int63n(5)}
		default:
			// Keep W ≥ 1; shrinking W below max request exercises the
			// infeasible path.
			return Mutation{Op: OpSetCapacity, W: 1 + rng.Int63n(2*in.W)}
		}
	}
}

// TestIncrementalMatchesColdRandom hammers single-gen sessions with
// random mutation sequences on random trees and pins every resolve —
// report, error text and sentinel classification — to a cold solve of
// the snapshot instance.
func TestIncrementalMatchesColdRandom(t *testing.T) {
	ctx := context.Background()
	cold := solver.MustLookup(solver.SingleGen)
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		cfg := gen.TreeConfig{
			Internals: 4 + rng.Intn(12), MaxArity: 2 + rng.Intn(3),
			MaxDist: 4, MaxReq: 9, ExtraClients: rng.Intn(4),
		}
		in := gen.RandomInstance(rng, cfg, seed%2 == 0)
		s, err := New(in, solver.SingleGen)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for step := 0; step < 40; step++ {
			if step > 0 {
				m := randomMutation(rng, s.Instance(), true)
				if err := s.Apply([]Mutation{m}); err != nil {
					t.Fatalf("seed %d step %d: apply %+v: %v", seed, step, m, err)
				}
			}
			snap := s.Instance()
			got, gerr := s.Resolve(ctx)
			want, werr := cold.Solve(ctx, solver.Request{Instance: snap})
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("seed %d step %d: delta err %v, cold err %v", seed, step, gerr, werr)
			}
			if gerr != nil {
				if gerr.Error() != werr.Error() {
					t.Fatalf("seed %d step %d: error text %q, cold %q", seed, step, gerr, werr)
				}
				if errors.Is(gerr, solver.ErrInfeasible) != errors.Is(werr, solver.ErrInfeasible) {
					t.Fatalf("seed %d step %d: sentinel classification diverged: %v vs %v", seed, step, gerr, werr)
				}
				continue
			}
			reportsEqual(t, "seed/step", got, want)
		}
		s.Close()
	}
}

// TestIncrementalLargeTreePartialDirty runs long mutation sequences on
// a tree large enough that single mutations stay far below the
// full-dirty threshold, so the genuinely incremental path (partial
// retract + visit) carries every resolve.
func TestIncrementalLargeTreePartialDirty(t *testing.T) {
	ctx := context.Background()
	cold := solver.MustLookup(solver.SingleGen)
	rng := rand.New(rand.NewSource(4242))
	in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 200, MaxArity: 3, MaxDist: 5, MaxReq: 9}, true)
	s, err := New(in, solver.SingleGen)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for step := 0; step < 60; step++ {
		if step > 0 {
			// No capacity or structural mutations: those force a full
			// pass and would hide incremental bugs.
			var m Mutation
			for {
				m = randomMutation(rng, s.Instance(), false)
				if m.Op != OpSetCapacity {
					break
				}
			}
			if err := s.Apply([]Mutation{m}); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		snap := s.Instance()
		got, gerr := s.Resolve(ctx)
		want, werr := cold.Solve(ctx, solver.Request{Instance: snap})
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("step %d: delta err %v, cold err %v", step, gerr, werr)
		}
		if gerr != nil {
			continue
		}
		reportsEqual(t, "large", got, want)
	}
}

// TestWarmFallbackSession pins the full-warm fallback path (an engine
// without incremental or delta support) against cold solves and
// PlanDelta churn.
func TestWarmFallbackSession(t *testing.T) {
	ctx := context.Background()
	cold := solver.MustLookup(solver.MultipleGreedy)
	rng := rand.New(rand.NewSource(5))
	in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 8, MaxArity: 3, MaxDist: 4, MaxReq: 9}, true)
	s, err := New(in, solver.MultipleGreedy)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	prev := &core.Solution{}
	for step := 0; step < 15; step++ {
		if step > 0 {
			if err := s.Apply([]Mutation{randomMutation(rng, s.Instance(), true)}); err != nil {
				t.Fatal(err)
			}
		}
		snap := s.Instance()
		got, gerr := s.Resolve(ctx)
		want, werr := cold.Solve(ctx, solver.Request{Instance: snap})
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("step %d: delta err %v, cold err %v", step, gerr, werr)
		}
		if gerr != nil {
			continue
		}
		reportsEqual(t, "warm", got, want)
		churnEqual(t, "warm", got.Churn, multiple.PlanDelta(prev, got.Solution))
		prev = got.Solution
	}
}

// TestReplanSessionFailures exercises the delta-engine path: failed
// servers leave the placement, recovery readmits them, churn is
// engine-reported.
func TestReplanSessionFailures(t *testing.T) {
	ctx := context.Background()
	in := smallInstance(t)
	s, err := New(in, solver.MultipleReplan)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rep, err := s.Resolve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Churn == nil || len(rep.Churn.Added) != rep.Solution.NumReplicas() {
		t.Fatalf("first resolve churn %+v", rep.Churn)
	}

	down := rep.Solution.Replicas[0]
	if err := s.Apply([]Mutation{{Op: OpFailServer, Node: down}}); err != nil {
		t.Fatal(err)
	}
	rep2, err := s.Resolve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(rep2.Solution.Replicas, down) {
		t.Fatalf("failed server %d still hosts a replica", down)
	}
	if err := core.Verify(s.Instance(), core.Multiple, rep2.Solution); err != nil {
		t.Fatalf("post-failure placement infeasible: %v", err)
	}

	// Recovery via SetFailed(nil): the old site may return.
	if err := s.SetFailed(nil); err != nil {
		t.Fatal(err)
	}
	if got := s.Failed(); len(got) != 0 {
		t.Fatalf("failed set not cleared: %v", got)
	}
	if _, err := s.Resolve(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSessionRejectsInvalidMutations pins the typed validation
// failures.
func TestSessionRejectsInvalidMutations(t *testing.T) {
	in := smallInstance(t)
	s, err := New(in, solver.SingleGen)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bad := []Mutation{
		{Op: OpSetRequest, Node: 0, Requests: 5},           // root is not a client
		{Op: OpSetRequest, Node: 99, Requests: 5},          // unknown node
		{Op: OpSetEdgeLength, Node: 0, Dist: 1},            // root has no parent edge
		{Op: OpAddClient, Parent: 3, Dist: 1, Requests: 1}, // parent is a client
		{Op: OpSetCapacity, W: 0},                          // capacity must be positive
		{Op: OpFailServer, Node: 1},                        // single-gen is not delta-capable
		{Op: "warp", Node: 1},                              // unknown op
	}
	for _, m := range bad {
		if err := s.Apply([]Mutation{m}); err == nil {
			t.Errorf("mutation %+v accepted", m)
		}
	}
	// The session must still resolve after the rejected batch.
	if _, err := s.Resolve(context.Background()); err != nil {
		t.Fatalf("session broken after rejected mutations: %v", err)
	}
}

// TestSessionInfeasibleThenRepaired pins that a failed resolve keeps
// the session usable and classified, and a repairing mutation heals
// it.
func TestSessionInfeasibleThenRepaired(t *testing.T) {
	ctx := context.Background()
	in := smallInstance(t)
	s, err := New(in, solver.SingleGen)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Resolve(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply([]Mutation{{Op: OpSetCapacity, W: 2}}); err != nil { // max request is 5
		t.Fatal(err)
	}
	_, err = s.Resolve(ctx)
	if !errors.Is(err, solver.ErrInfeasible) {
		t.Fatalf("shrunken capacity: err = %v, want ErrInfeasible", err)
	}
	if _, ok := s.Report(); !ok {
		t.Fatal("failed resolve dropped the last good report")
	}
	if err := s.Apply([]Mutation{{Op: OpSetCapacity, W: 9}}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Resolve(ctx)
	if err != nil {
		t.Fatalf("repaired session still failing: %v", err)
	}
	want, err := solver.MustLookup(solver.SingleGen).Solve(ctx, solver.Request{Instance: s.Instance()})
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "repaired", rep, want)
}

// TestSessionConcurrentHammer drives one session from parallel
// mutators, resolvers and readers; under -race this pins the session's
// internal locking. Every successful resolve must carry a placement
// that verifies against SOME consistent snapshot — we assert internal
// consistency (assignments cover exactly the solution's replicas)
// rather than racing to capture the matching instance.
func TestSessionConcurrentHammer(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(31))
	in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 12, MaxArity: 3, MaxDist: 4, MaxReq: 9}, true)
	s, err := New(in, solver.SingleGen)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 128)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			grng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < 20; i++ {
				var m Mutation
				for {
					m = randomMutation(grng, s.Instance(), false)
					if m.Op != OpSetCapacity { // keep every interleaving feasible
						break
					}
				}
				if err := s.Apply([]Mutation{m}); err != nil {
					errs <- fmt.Errorf("mutator %d: %v", g, err)
					return
				}
				if rep, err := s.Resolve(ctx); err != nil {
					errs <- fmt.Errorf("mutator %d: resolve: %v", g, err)
					return
				} else if rep.Solution == nil {
					errs <- fmt.Errorf("mutator %d: nil solution", g)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				s.Instance()
				s.Report()
				s.Failed()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Quiescent end state: one more resolve must match a cold solve.
	snap := s.Instance()
	got, err := s.Resolve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want, err := solver.MustLookup(solver.SingleGen).Solve(ctx, solver.Request{Instance: snap})
	if err != nil {
		t.Fatal(err)
	}
	reportsEqual(t, "quiescent", got, want)
}

// TestSessionIdentity pins the ID semantics: the canonical hash at
// creation, stable across mutations.
func TestSessionIdentity(t *testing.T) {
	in := smallInstance(t)
	s, err := New(in, solver.SingleGen)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.ID() != in.CanonicalHash() {
		t.Fatal("session ID is not the creation hash")
	}
	if err := s.Apply([]Mutation{{Op: OpSetRequest, Node: 3, Requests: 1}}); err != nil {
		t.Fatal(err)
	}
	if s.ID() != in.CanonicalHash() {
		t.Fatal("session ID drifted with mutations")
	}
	if s.Instance().CanonicalHash() == in.CanonicalHash() {
		t.Fatal("snapshot hash did not change after mutation")
	}
	if s.Engine() != solver.SingleGen {
		t.Fatalf("engine name %q", s.Engine())
	}
}

// TestApplyManyAddClients: one mutate batch of 10⁵ add_client ops
// stays linear. Each AddLeaf only appends; the child index and the
// visit orders are rebuilt once, at the next resolve. The answer after
// the batch is the cold solve's.
func TestApplyManyAddClients(t *testing.T) {
	const ops = 100_000
	ctx := context.Background()
	rng := rand.New(rand.NewSource(97))
	in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 2000, MaxArity: 3, MaxDist: 4, MaxReq: 9}, true)
	internals := in.Tree.Internals()
	for _, engine := range []string{solver.SingleGen, solver.MultipleGreedy, solver.MultipleReplan} {
		t.Run(engine, func(t *testing.T) {
			s, err := New(in, engine)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			muts := make([]Mutation, ops)
			for i := range muts {
				muts[i] = Mutation{Op: OpAddClient, Parent: internals[i%len(internals)], Dist: int64(1 + i%3), Requests: int64(1 + i%5)}
			}
			added := ops
			if engine == solver.MultipleReplan {
				// A failure halfway, naming the leaf added just before.
				muts[ops/2] = Mutation{Op: OpFailServer, Node: tree.NodeID(in.Tree.Len() + ops/2 - 1)}
				added--
			}
			begin := time.Now()
			if err := s.Apply(muts); err != nil {
				t.Fatal(err)
			}
			if el := time.Since(begin); el > 2*time.Second {
				t.Fatalf("%d add_client ops took %v", ops, el)
			}
			snap := s.Instance()
			if snap.Tree.Len() != in.Tree.Len()+added || snap.Tree.Validate() != nil {
				t.Fatalf("snapshot has %d nodes (valid: %v)", snap.Tree.Len(), snap.Tree.Validate())
			}
			if engine == solver.MultipleReplan {
				return // replanning a tree this size is the slow part, not the batch
			}
			got, err := s.Resolve(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want, err := solver.MustLookup(engine).Solve(ctx, solver.Request{Instance: snap})
			if err != nil {
				t.Fatal(err)
			}
			reportsEqual(t, engine, got, want)
		})
	}
}
