package decomp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/solver"
	"replicatree/internal/tree"
)

func flatOf(in *core.Instance) *core.FlatInstance {
	return &core.FlatInstance{Flat: in.Tree, W: in.W, DMax: in.DMax}
}

// TestSolveFlatFeasibleSweep: over random instances of both distance
// regimes and a spread of piece sizes, the stitched solution must
// verify, the bound must match core.LowerBound, and the
// reported gap must tie out replicas vs bound.
func TestSolveFlatFeasibleSweep(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, withD := range []bool{false, true} {
			in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 80, MaxArity: 3, ExtraClients: 60}, withD)
			fi := flatOf(in)
			for _, target := range []int{8, 32, 1 << 20} {
				res, err := SolveFlat(context.Background(), fi, Options{TargetPieceSize: target, Verify: true})
				if err != nil {
					t.Fatalf("seed %d withD=%v target %d: %v", seed, withD, target, err)
				}
				if err := core.Verify(in, core.Multiple, res.Solution); err != nil {
					t.Fatalf("seed %d withD=%v target %d: core.Verify: %v", seed, withD, target, err)
				}
				if want := core.LowerBound(in); res.LowerBound != want {
					t.Fatalf("seed %d target %d: lower bound %d, want %d", seed, target, res.LowerBound, want)
				}
				if res.Replicas < res.LowerBound {
					t.Fatalf("seed %d target %d: replicas %d below bound %d", seed, target, res.Replicas, res.LowerBound)
				}
				wantGap := float64(res.Replicas-res.LowerBound) / float64(res.LowerBound)
				if res.Gap != wantGap {
					t.Fatalf("seed %d target %d: gap %v does not tie out (want %v)", seed, target, res.Gap, wantGap)
				}
			}
		}
	}
}

// TestSolveFlatSinglePieceMatchesInner: a target larger than the tree
// means no decomposition, so the result must equal the inner engine's
// cold solve exactly.
func TestSolveFlatSinglePieceMatchesInner(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 40, MaxArity: 3, ExtraClients: 30}, true)
	fi := flatOf(in)
	res, err := SolveFlat(context.Background(), fi, Options{TargetPieceSize: 1 << 20, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pieces != 1 {
		t.Fatalf("expected a single piece, got %d", res.Pieces)
	}
	eng, err := solver.Lookup(DefaultEngine)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Solve(context.Background(), solver.Request{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replicas != rep.Solution.NumReplicas() {
		t.Fatalf("single-piece decomp found %d replicas, inner engine %d", res.Replicas, rep.Solution.NumReplicas())
	}
}

// TestCoordinationImproves: boundary coordination must never lose to
// no coordination, and must strictly win somewhere in the sweep (a
// generous W leaves boundary replicas half-empty, which is exactly
// what the rounds fold upward).
func TestCoordinationImproves(t *testing.T) {
	improved := false
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 120, MaxArity: 3, ExtraClients: 80}, false)
		fi := flatOf(in)
		off, err := SolveFlat(context.Background(), fi, Options{TargetPieceSize: 16, Rounds: -1, Verify: true})
		if err != nil {
			t.Fatalf("seed %d rounds=-1: %v", seed, err)
		}
		on, err := SolveFlat(context.Background(), fi, Options{TargetPieceSize: 16, Verify: true})
		if err != nil {
			t.Fatalf("seed %d rounds=default: %v", seed, err)
		}
		if off.Rounds != 0 || off.Moved != 0 {
			t.Fatalf("seed %d: Rounds=-1 still coordinated (%d rounds, %d moved)", seed, off.Rounds, off.Moved)
		}
		if on.Replicas > off.Replicas {
			t.Fatalf("seed %d: coordination made it worse (%d > %d)", seed, on.Replicas, off.Replicas)
		}
		if on.Replicas < off.Replicas {
			improved = true
		}
	}
	if !improved {
		t.Fatal("coordination never improved a placement across the sweep")
	}
}

// registerFlaky installs a test engine that refuses any tree smaller
// than minNodes and otherwise delegates to multiple-greedy. Decomp
// pieces all fall under the threshold, so every piece solve fails and
// the merge path must cascade back to the undecomposed tree.
func registerFlaky() string {
	return registerRefusing("test-flaky-small", func(nodes int) bool { return nodes < flakyMinNodes })
}

var registerMu sync.Mutex

// registerRefusing installs, once per name, a test engine that fails
// every tree whose node count refuse names and otherwise delegates to
// multiple-greedy.
func registerRefusing(name string, refuse func(nodes int) bool) string {
	registerMu.Lock()
	defer registerMu.Unlock()
	if _, err := solver.Lookup(name); err == nil {
		return name
	}
	inner := solver.MustLookup(solver.MultipleGreedy)
	solver.MustRegisterEngine(solver.NewEngine(solver.Capabilities{
		Name:         name,
		Policy:       core.Multiple,
		SupportsDMax: true,
		Cost:         solver.CostPolynomial,
		Description:  "test engine: fails on some tree sizes",
	}, func(ctx context.Context, req solver.Request) (*core.Solution, int64, error) {
		if refuse(req.Instance.Tree.Len()) {
			return nil, 0, errors.New("tree size refused by this engine")
		}
		rep, err := inner.Solve(ctx, req)
		if err != nil {
			return nil, 0, err
		}
		return rep.Solution, rep.Work, nil
	}))
	return name
}

const flakyMinNodes = 200

// TestFailedPiecesMergeBack: when every piece solve fails, the merge
// path must drop the cuts and fall back to the undecomposed tree, and
// the result must record the merges.
func TestFailedPiecesMergeBack(t *testing.T) {
	name := registerFlaky()
	rng := rand.New(rand.NewSource(7))
	in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 120, MaxArity: 3, ExtraClients: 80}, false)
	fi := flatOf(in)
	if fi.Flat.Len() < flakyMinNodes {
		t.Fatalf("fixture too small: %d nodes", fi.Flat.Len())
	}
	res, err := SolveFlat(context.Background(), fi, Options{TargetPieceSize: 16, Engine: name, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged == 0 {
		t.Fatal("expected merged pieces")
	}
	if res.Pieces != 1 {
		t.Fatalf("expected the undecomposed fallback (1 piece), got %d", res.Pieces)
	}
	if err := core.Verify(in, core.Multiple, res.Solution); err != nil {
		t.Fatalf("merged solve is infeasible: %v", err)
	}
}

// TestEngineRegistration: the registry path must resolve "decomp" and
// produce verified reports with a filled bound and no work: decomp is
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

// TestSolveFlatFromChunkedStream solves straight off the wire codec,
// the way cmd/replica -stream does.
func TestSolveFlatFromChunkedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	fi, err := gen.RandomFlatInstance(rng, 5000, gen.TreeConfig{}, true)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.WriteChunked(&buf, fi, 512); err != nil {
		t.Fatal(err)
	}
	rt, err := core.ReadChunked(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveFlat(context.Background(), rt, Options{TargetPieceSize: 256, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pieces < 2 {
		t.Fatalf("expected a real decomposition, got %d pieces", res.Pieces)
	}
	if res.Replicas < res.LowerBound {
		t.Fatalf("replicas %d below bound %d", res.Replicas, res.LowerBound)
	}
}

func TestSolveFlatCancelled(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 60, MaxArity: 3, ExtraClients: 40}, false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveFlat(ctx, flatOf(in), Options{TargetPieceSize: 8}); err == nil {
		t.Fatal("cancelled solve succeeded")
	}
}

// TestSolvePiecesNamesFirstBadPiece: a piece whose tree cannot be
// built is a hard error naming the first such piece in piece order,
// whichever worker meets a bad piece first.
func TestSolvePiecesNamesFirstBadPiece(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fi := flatOf(gen.RandomInstance(rng, gen.TreeConfig{Internals: 60, MaxArity: 3, ExtraClients: 40}, false))
	pieces := tree.PartitionFlat(fi.Flat, 8)
	if len(pieces) < 4 {
		t.Fatalf("expected several pieces, got %d", len(pieces))
	}
	for _, k := range []int{2, 3} {
		pieces[k].Parents = pieces[k].Parents[:1]
	}
	want := fmt.Sprintf("decomp: piece %d: tree: malformed piece", pieces[2].Boundary.Root)
	for _, workers := range []int{1, 2, 8} {
		_, err := solvePieces(context.Background(), fi, solver.MustLookup(DefaultEngine), pieces, Options{Workers: workers}, &core.Solution{})
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("%d workers: got %v, want %q", workers, err, want)
		}
	}
}
