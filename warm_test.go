package replicatree_test

// Session-path gates: the zero-allocation guarantee of the scratch-based
// solve path and the equality of a reused scratch with a fresh one.
//
// TestAllocs is the CI tripwire for the tentpole invariant: an
// Engine.Solve on a lent scratch with the instance already ingested
// performs zero heap allocations for every session engine. It measures
// through the public Engine seam, so a regression anywhere on the
// path (session, Normalize, Verify, fillBound, the dispatch itself)
// trips it. Set REPLICATREE_SKIP_ALLOC_GATE=1 to skip it temporarily,
// e.g. while bisecting an unrelated failure under instrumented builds
// (-race and -msan builds skip automatically: their instrumentation
// allocates).
//
// TestReusedScratchMatchesFresh is the scratch seam's metamorphic
// check: over the full frozen testdata/ corpus, every session engine
// solving on a reused scratch — lent (first solve and warm re-solve)
// or pooled — must return what the same engine returns on a fresh
// solver.NewScratch(): the same solution, error text and report
// metadata. Each algorithm's answers themselves are pinned against
// its reference oracle inside its own package (single, multiple, lp).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/solver"
)

// warmEngines are the session engines, which solve on
// Request.Scratch; every other engine uses it only for the seam's
// verify and bound.
var warmEngines = []string{
	solver.SingleGen,
	solver.SingleNoD,
	solver.SinglePassUp,
	solver.SingleBest,
	solver.MultipleBin,
	solver.MultipleLazy,
	solver.MultipleBest,
	solver.MultipleGreedy,
	solver.LPRound,
}

// allocInstance builds the ~200-node binary instance the allocation
// gate solves: binary so multiple-bin applies, W ≥ max rᵢ so the
// Multiple preconditions hold.
func allocInstance(seed int64, withDistance bool) *core.Instance {
	return binaryInstance(seed, 150, withDistance)
}

// binaryInstance builds a seeded binary instance with the given number
// of internal nodes and W ≥ max rᵢ.
func binaryInstance(seed int64, internals int, withDistance bool) *core.Instance {
	rng := rand.New(rand.NewSource(seed))
	in := gen.RandomInstance(rng, gen.TreeConfig{
		Internals: internals, MaxArity: 2, MaxDist: 4, MaxReq: 10,
	}, withDistance)
	if in.W < in.Tree.MaxRequests() {
		in.W = in.Tree.MaxRequests()
	}
	return in
}

func TestAllocs(t *testing.T) {
	if os.Getenv("REPLICATREE_SKIP_ALLOC_GATE") != "" {
		t.Skip("REPLICATREE_SKIP_ALLOC_GATE set")
	}
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	skipIfInstrumented(t)
	dist := allocInstance(71, true)
	nod := allocInstance(73, false)
	ctx := context.Background()
	sc := solver.NewScratch()
	for _, name := range warmEngines {
		eng := solver.MustLookup(name)
		in := dist
		if !eng.Capabilities().SupportsDMax {
			in = nod
		}
		req := solver.Request{Instance: in, Scratch: sc}
		// Warm up outside the measurement: the first solve ingests the
		// instance and grows every session buffer.
		if rep, err := eng.Solve(ctx, req); err != nil {
			t.Fatalf("%s: warm-up solve: %v", name, err)
		} else if rep.Solution == nil {
			t.Fatalf("%s: warm-up solve returned no solution", name)
		}
		avg := testing.AllocsPerRun(20, func() {
			rep, err := eng.Solve(ctx, req)
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
			_ = rep
		})
		if avg != 0 {
			t.Errorf("%s: warm Engine.Solve allocated %.1f times per run, want 0", name, avg)
		}
	}
}

// solveFresh solves in with eng on a fresh scratch, the reference the
// reuse tests compare against. A successful report must carry the
// metadata the engine derives from its solution.
func solveFresh(t *testing.T, eng solver.Engine, in *core.Instance) (solver.Report, error) {
	t.Helper()
	rep, err := eng.Solve(context.Background(), solver.Request{Instance: in, Scratch: solver.NewScratch()})
	if err != nil {
		return rep, err
	}
	lb := core.LowerBound(in)
	gap := 0.0
	if lb > 0 {
		gap = float64(rep.Solution.NumReplicas()-lb) / float64(lb)
	}
	if rep.Policy != eng.Capabilities().Policy || rep.LowerBound != lb || rep.Gap != gap ||
		rep.Proved || rep.Engine != eng.Name() {
		t.Fatalf("%s: fresh report metadata %+v, want policy %v, bound %d, gap %v, unproved, engine %s",
			eng.Name(), rep, eng.Capabilities().Policy, lb, gap, eng.Name())
	}
	return rep, nil
}

// checkFresh requires a solve on a reused scratch to equal the fresh
// one: same error text, or same solution and report metadata.
func checkFresh(t *testing.T, label string, want solver.Report, wantErr error, got solver.Report, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: fresh err %v, reused err %v", label, wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Errorf("%s: fresh err %q, reused err %q", label, wantErr, gotErr)
		}
		return
	}
	if !slices.Equal(want.Solution.Replicas, got.Solution.Replicas) ||
		!slices.Equal(want.Solution.Assignments, got.Solution.Assignments) {
		t.Errorf("%s: solutions differ\n fresh  %v\n reused %v", label, want.Solution, got.Solution)
	}
	if got.Policy != want.Policy || got.LowerBound != want.LowerBound || got.Gap != want.Gap ||
		got.Proved != want.Proved || got.Engine != want.Engine || got.Work != want.Work {
		t.Errorf("%s: report metadata %+v, want %+v", label, got, want)
	}
}

// TestReusedScratchMatchesFresh solves every corpus instance with each
// session engine — on a lent scratch twice (ingest, then warm
// re-solve) and once on a pooled scratch — and requires the fresh
// scratch's outcome every time.
func TestReusedScratchMatchesFresh(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sc := solver.NewScratch()
	n := 0
	for _, file := range files {
		if filepath.Base(file) == "manifest.json" {
			continue
		}
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var in core.Instance
		if err := json.Unmarshal(raw, &in); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		n++
		for _, name := range warmEngines {
			eng := solver.MustLookup(name)
			if !eng.Capabilities().SupportsDMax && !in.NoD() {
				continue // the engine's NoD gate answers, not the algorithm
			}
			ref, refErr := solveFresh(t, eng, &in)
			for round := 1; round <= 2; round++ {
				rep, err := eng.Solve(ctx, solver.Request{Instance: &in, Scratch: sc})
				checkFresh(t, fmt.Sprintf("%s %s lent round %d", file, name, round), ref, refErr, rep, err)
			}
			rep, err := eng.Solve(ctx, solver.Request{Instance: &in})
			checkFresh(t, fmt.Sprintf("%s %s pooled", file, name), ref, refErr, rep, err)
		}
	}
	if n < 8 {
		t.Fatalf("corpus has only %d instances", n)
	}
}

// TestScratchPool pins the pooling contract: a pooled scratch is
// reusable across distinct instances, and an invalid instance fails
// ingestion with the instance's validation error.
func TestScratchPool(t *testing.T) {
	ctx := context.Background()
	eng := solver.MustLookup(solver.SingleGen)
	sc := solver.GetScratch()
	defer solver.PutScratch(sc)
	rng := rand.New(rand.NewSource(79))
	for i := 0; i < 5; i++ {
		in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 10}, true)
		ref, refErr := solveFresh(t, eng, in)
		rep, err := eng.Solve(ctx, solver.Request{Instance: in, Scratch: sc})
		checkFresh(t, fmt.Sprintf("instance %d", i), ref, refErr, rep, err)
	}

	// An invalid instance must produce its validation error.
	bad := &core.Instance{Tree: gen.RandomTree(rng, gen.TreeConfig{Internals: 4}), W: 0, DMax: core.NoDistance}
	ref, refErr := solveFresh(t, eng, bad)
	if refErr == nil || refErr.Error() != bad.Validate().Error() {
		t.Fatalf("fresh solve of an invalid instance: err %v, want %v", refErr, bad.Validate())
	}
	rep, err := eng.Solve(ctx, solver.Request{Instance: bad, Scratch: sc})
	checkFresh(t, "invalid instance", ref, refErr, rep, err)
}

// settleEngine runs its engine's solve to completion even after
// Batch's per-task timeout has abandoned it — a solve whose deadline
// fires mid-run — and reports on done when it has finished.
type settleEngine struct {
	solver.Engine
	done *sync.WaitGroup
}

func (e settleEngine) Solve(ctx context.Context, req solver.Request) (solver.Report, error) {
	defer e.done.Done()
	return e.Engine.Solve(context.WithoutCancel(ctx), req)
}

// TestAbandonedSolveLeavesCleanPool times out a batch of large session
// solves, lets the abandoned solves finish and return their pooled
// scratches, and then requires solves on scratches drawn from the same
// pool to reproduce a fresh scratch: a pooled scratch never leaks one
// solve's state into the next.
func TestAbandonedSolveLeavesCleanPool(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		big  *core.Instance
	}{
		// lp-round's dense tableau makes a 2k-node relaxation cost
		// seconds and a gigabyte; ~600 nodes keep it sub-second.
		{solver.LPRound, binaryInstance(101, 450, true)},
		{solver.MultipleBest, binaryInstance(103, 1500, true)},
	}
	var done sync.WaitGroup
	var tasks []solver.Task
	for _, c := range cases {
		for i := 0; i < 2; i++ {
			done.Add(1)
			tasks = append(tasks, solver.Task{
				ID:      c.name,
				Engine:  settleEngine{solver.MustLookup(c.name), &done},
				Request: solver.Request{Instance: c.big},
			})
		}
	}
	results, st := solver.Batch(ctx, tasks, solver.Options{Workers: 2, Timeout: time.Nanosecond})
	for _, r := range results {
		if !errors.Is(r.Err, context.DeadlineExceeded) {
			t.Fatalf("%s: batch err %v, want the per-task deadline", r.Task.ID, r.Err)
		}
	}
	if st.Failed != len(tasks) {
		t.Fatalf("batch stats %v: want every task timed out", st)
	}
	done.Wait()

	for _, c := range cases {
		eng := solver.MustLookup(c.name)
		for _, in := range []*core.Instance{binaryInstance(107, 120, true), c.big} {
			ref, refErr := solveFresh(t, eng, in)
			sc := solver.GetScratch()
			rep, err := eng.Solve(ctx, solver.Request{Instance: in, Scratch: sc})
			checkFresh(t, c.name+" lent", ref, refErr, rep, err)
			solver.PutScratch(sc)
			rep, err = eng.Solve(ctx, solver.Request{Instance: in})
			checkFresh(t, c.name+" pooled", ref, refErr, rep, err)
		}
	}
}
