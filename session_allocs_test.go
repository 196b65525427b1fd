package replicatree_test

import (
	"context"
	"math/rand"
	"os"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/delta"
	"replicatree/internal/gen"
	"replicatree/internal/solver"
)

// Allocation ceilings of one set_request plus Resolve on a
// delta.Session, the operation of the session-churn workload, on the
// instances of BenchmarkDeltaMutate2k and BenchmarkReplanMutate:
//   - single-gen: the one solution clone Resolve hands out and keeps,
//     the churn record, and the instance wrapper that makes the
//     session's scratch re-ingest the edited tree;
//   - multiple-replan: the transport network and the growth pool,
//     which the replan builds afresh on every resolve, plus the same
//     session overhead.
const (
	singleGenResolveAllocs = 5
	replanResolveAllocs    = 136
)

// TestSessionResolveAllocs pins the allocations of one mutate and
// resolve on a single-gen and on a multiple-replan session, so that a
// change that adds work to the session path shows here, not only in
// benchmark numbers. Like TestAllocs it runs in plain builds only.
func TestSessionResolveAllocs(t *testing.T) {
	if os.Getenv("REPLICATREE_SKIP_ALLOC_GATE") != "" {
		t.Skip("REPLICATREE_SKIP_ALLOC_GATE set")
	}
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	skipIfInstrumented(t)

	rng := rand.New(rand.NewSource(97))
	single := gen.RandomInstance(rng, gen.TreeConfig{Internals: 1500, MaxArity: 2, MaxDist: 4, MaxReq: 10}, true)
	single.W = max(single.W, single.Tree.MaxRequests())

	rng = rand.New(rand.NewSource(98))
	tr := gen.RandomTree(rng, gen.TreeConfig{Internals: 150, MaxArity: 2, MaxDist: 4, MaxReq: 10})
	replan := &core.Instance{Tree: tr, W: max(tr.MaxRequests(), tr.TotalRequests()/16), DMax: 2 * int64(tr.Height())}

	for _, tc := range []struct {
		engine string
		in     *core.Instance
		stride int
		limit  float64
	}{
		{solver.SingleGen, single, 1, singleGenResolveAllocs},
		{solver.MultipleReplan, replan, 7, replanResolveAllocs},
	} {
		s, err := delta.New(tc.in, tc.engine)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if _, err := s.Resolve(ctx); err != nil {
			t.Fatalf("%s: first resolve: %v", tc.engine, err)
		}
		clients := tc.in.Tree.Clients()
		i := 0
		mutate := []delta.Mutation{{Op: delta.OpSetRequest}}
		avg := testing.AllocsPerRun(50, func() {
			i++
			mutate[0].Node, mutate[0].Requests = clients[(i*tc.stride)%len(clients)], int64(1+i%10)
			if err := s.Apply(mutate); err != nil {
				t.Fatalf("%s: %v", tc.engine, err)
			}
			if _, err := s.Resolve(ctx); err != nil {
				t.Fatalf("%s: %v", tc.engine, err)
			}
		})
		s.Close()
		t.Logf("%s: %.1f allocations per set_request and Resolve", tc.engine, avg)
		if avg > tc.limit {
			t.Errorf("%s: set_request plus Resolve allocated %.1f times, want at most %.0f", tc.engine, avg, tc.limit)
		}
	}
}
