package solver

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
)

// TestPooledLPKeepsBuffers pins what PutScratch keeps of lp-round: it
// drops the instance, its relaxation and the simplex tableau, but not
// the session's grow-only buffers. So the first Placement of the next
// instance on a pooled scratch allocates little: 7 times on the first
// run, and up to ~25 when internal/lp's pool hands out another
// workspace that must grow, where a zeroed lp.Session regrows about a
// hundred buffers. The pooled answer is a fresh session's.
func TestPooledLPKeepsBuffers(t *testing.T) {
	skipIfInstrumented(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // keep both pools' items
	rng := rand.New(rand.NewSource(1801))
	shaped := func() *core.Instance { // a solve-cold-shaped instance, ~210 nodes
		tr := gen.RandomTree(rng, gen.TreeConfig{Internals: 150, MaxArity: 2, MaxDist: 4, MaxReq: 10})
		return &core.Instance{Tree: tr, W: max(tr.MaxRequests(), tr.TotalRequests()/16), DMax: 2 * int64(tr.Height())}
	}
	first, next := shaped(), shaped()
	eng := MustLookup(LPRound)
	sc := GetScratch()
	if _, err := eng.Solve(context.Background(), Request{Instance: first, Scratch: sc}); err != nil {
		t.Fatal(err)
	}
	PutScratch(sc)
	if GetScratch() != sc {
		t.Skip("the pool did not hand the scratch back")
	}
	defer PutScratch(sc)
	sc.ingest(next)
	s, err := sc.lpSession() // Reset builds the relaxation; not counted
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := s.Placement()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	allocs := after.Mallocs - before.Mallocs
	t.Logf("pooled second-instance Placement: %d allocations", allocs)
	if allocs > 40 {
		t.Errorf("pooled second-instance Placement made %d allocations, want ≤ 40", allocs)
	}
	want, err := eng.Solve(context.Background(), Request{Instance: next, Scratch: NewScratch()})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Replicas, want.Solution.Replicas) || !slices.Equal(got.Assignments, want.Solution.Assignments) {
		t.Fatalf("pooled placement %v, fresh %v", got, want.Solution)
	}
}
