package replicatree_test

// Session-path gates: the zero-allocation guarantee of the scratch-based
// solve path and its behavioural equality with the reference
// implementations.
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
// TestWarmMatchesColdCorpus is the metamorphic twin: over the full
// frozen testdata/ corpus, every session engine must reproduce its
// reference implementation — the allocating package function — with
// the same solution, error text and report metadata, on a lent scratch
// (first solve and warm re-solve) and on a pooled one.

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
	"replicatree/internal/lp"
	"replicatree/internal/multiple"
	"replicatree/internal/single"
	"replicatree/internal/solver"
)

// warmEngines are the session engines with their reference
// implementations; every other engine ignores Request.Scratch.
var warmEngines = []struct {
	name string
	ref  func(*core.Instance) (*core.Solution, error)
}{
	{solver.SingleGen, single.Gen},
	{solver.SingleNoD, single.NoD},
	{solver.MultipleBin, multiple.Bin},
	{solver.MultipleLazy, multiple.Lazy},
	{solver.MultipleBest, multiple.Best},
	{solver.MultipleGreedy, multiple.Greedy},
	{solver.LPRound, lp.Placement},
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
	for _, we := range warmEngines {
		name := we.name
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

// checkReference requires a session engine's outcome to equal its
// reference implementation's: same error text, or same solution and
// the report metadata the engine derives from it.
func checkReference(t *testing.T, label string, eng solver.Engine, in *core.Instance, ref *core.Solution, refErr error, got solver.Report, gotErr error) {
	t.Helper()
	if (refErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: reference err %v, engine err %v", label, refErr, gotErr)
	}
	if refErr != nil {
		if refErr.Error() != gotErr.Error() {
			t.Errorf("%s: reference err %q, engine err %q", label, refErr, gotErr)
		}
		return
	}
	if !slices.Equal(ref.Replicas, got.Solution.Replicas) ||
		!slices.Equal(ref.Assignments, got.Solution.Assignments) {
		t.Errorf("%s: solutions differ\n reference %v\n engine    %v", label, ref, got.Solution)
	}
	lb := core.LowerBound(in)
	gap := 0.0
	if lb > 0 {
		gap = float64(ref.NumReplicas()-lb) / float64(lb)
	}
	if got.Policy != eng.Capabilities().Policy || got.LowerBound != lb || got.Gap != gap ||
		got.Proved || got.Engine != eng.Name() {
		t.Errorf("%s: report metadata %+v, want policy %v, bound %d, gap %v, unproved, engine %s",
			label, got, eng.Capabilities().Policy, lb, gap, eng.Name())
	}
}

// TestWarmMatchesColdCorpus solves every corpus instance with each
// session engine — on a lent scratch twice (ingest, then warm re-solve)
// and once on a pooled scratch — and requires the reference
// implementation's outcome every time.
func TestWarmMatchesColdCorpus(t *testing.T) {
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
		for _, we := range warmEngines {
			eng := solver.MustLookup(we.name)
			if !eng.Capabilities().SupportsDMax && !in.NoD() {
				continue // the engine's NoD gate answers, not the algorithm
			}
			ref, refErr := we.ref(&in)
			for round := 1; round <= 2; round++ {
				rep, err := eng.Solve(ctx, solver.Request{Instance: &in, Scratch: sc})
				checkReference(t, fmt.Sprintf("%s %s lent round %d", file, we.name, round), eng, &in, ref, refErr, rep, err)
			}
			rep, err := eng.Solve(ctx, solver.Request{Instance: &in})
			checkReference(t, fmt.Sprintf("%s %s pooled", file, we.name), eng, &in, ref, refErr, rep, err)
		}
	}
	if n < 8 {
		t.Fatalf("corpus has only %d instances", n)
	}
}

// TestScratchPool pins the pooling contract: a pooled scratch is
// reusable across distinct instances, and an invalid instance fails
// ingestion with the reference implementation's validation error.
func TestScratchPool(t *testing.T) {
	ctx := context.Background()
	eng := solver.MustLookup(solver.SingleGen)
	sc := solver.GetScratch()
	defer solver.PutScratch(sc)
	rng := rand.New(rand.NewSource(79))
	for i := 0; i < 5; i++ {
		in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 10}, true)
		ref, refErr := single.Gen(in)
		rep, err := eng.Solve(ctx, solver.Request{Instance: in, Scratch: sc})
		checkReference(t, fmt.Sprintf("instance %d", i), eng, in, ref, refErr, rep, err)
	}

	// An invalid instance must produce the reference validation error.
	bad := &core.Instance{Tree: gen.RandomTree(rng, gen.TreeConfig{Internals: 4}), W: 0, DMax: core.NoDistance}
	ref, refErr := single.Gen(bad)
	if refErr == nil {
		t.Fatal("the reference accepted an invalid instance")
	}
	rep, err := eng.Solve(ctx, solver.Request{Instance: bad, Scratch: sc})
	checkReference(t, "invalid instance", eng, bad, ref, refErr, rep, err)
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
// scratches, and then requires fresh solves — on scratches drawn from
// the same pool — to reproduce the reference implementations: a
// pooled scratch never leaks one solve's state into the next.
func TestAbandonedSolveLeavesCleanPool(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		ref  func(*core.Instance) (*core.Solution, error)
		big  *core.Instance
	}{
		// lp-round's dense tableau makes a 2k-node relaxation cost
		// seconds and a gigabyte; ~600 nodes keep it sub-second.
		{solver.LPRound, lp.Placement, binaryInstance(101, 450, true)},
		{solver.MultipleBest, multiple.Best, binaryInstance(103, 1500, true)},
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
			ref, refErr := c.ref(in)
			sc := solver.GetScratch()
			rep, err := eng.Solve(ctx, solver.Request{Instance: in, Scratch: sc})
			checkReference(t, c.name+" lent", eng, in, ref, refErr, rep, err)
			solver.PutScratch(sc)
			rep, err = eng.Solve(ctx, solver.Request{Instance: in})
			checkReference(t, c.name+" pooled", eng, in, ref, refErr, rep, err)
		}
	}
}
