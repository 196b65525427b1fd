package decomp

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/multiple"
	"replicatree/internal/tree"
)

func flatOf(in *core.Instance) *core.FlatInstance {
	return &core.FlatInstance{Flat: in.Tree, W: in.W, DMax: in.DMax}
}

// forced runs the pipeline with verification at the given target piece
// size (0 = DefaultPieceSize), with SolveFlat's round budget and pool.
func forced(ctx context.Context, fi *core.FlatInstance, target int) (*Result, error) {
	if target == 0 {
		target = DefaultPieceSize
	}
	return solveFlat(ctx, fi, true, target, coordinationRounds, runtime.GOMAXPROCS(0))
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
				res, err := forced(context.Background(), fi, target)
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
// means no decomposition, so the result must equal Greedy's solve of
// the whole tree exactly.
func TestSolveFlatSinglePieceMatchesInner(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 40, MaxArity: 3, ExtraClients: 30}, true)
	res, err := forced(context.Background(), flatOf(in), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Pieces != 1 {
		t.Fatalf("expected a single piece, got %d", res.Pieces)
	}
	var s multiple.Session
	s.Reset(in)
	want, err := s.Greedy()
	if err != nil {
		t.Fatal(err)
	}
	if res.Replicas != want.NumReplicas() {
		t.Fatalf("single-piece decomp found %d replicas, Greedy %d", res.Replicas, want.NumReplicas())
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
		off, err := solveFlat(context.Background(), fi, true, 16, 0, runtime.GOMAXPROCS(0))
		if err != nil {
			t.Fatalf("seed %d no rounds: %v", seed, err)
		}
		on, err := forced(context.Background(), fi, 16)
		if err != nil {
			t.Fatalf("seed %d default rounds: %v", seed, err)
		}
		if off.Rounds != 0 || off.Moved != 0 {
			t.Fatalf("seed %d: a zero round budget still coordinated (%d rounds, %d moved)", seed, off.Rounds, off.Moved)
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

// TestClientAboveWRefusedUpFront: with one client at W + 1 deep in a
// forced-piece tree, SolveFlat returns Greedy's refusal verbatim, from
// the whole-tree check: a piece's refusal would come back wrapped in
// "decomp: piece N: ".
func TestClientAboveWRefusedUpFront(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 120, MaxArity: 3, ExtraClients: 80}, false)
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
	if n := len(tree.PartitionFlat(in.Tree, 16)); n < 2 {
		t.Fatalf("expected several pieces, got %d", n)
	}
	for _, solve := range []func() (*Result, error){
		func() (*Result, error) { return forced(context.Background(), flatOf(in), 16) },
		func() (*Result, error) { return SolveFlat(context.Background(), flatOf(in), Options{Verify: true}) },
	} {
		if _, err := solve(); err == nil || err.Error() != want.Error() {
			t.Fatalf("got %v, want %q", err, want)
		}
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
	res, err := forced(context.Background(), rt, 256)
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
	if _, err := forced(ctx, flatOf(in), 8); err == nil {
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
		_, err := solvePieces(context.Background(), fi, pieces, workers)
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("%d workers: got %v, want %q", workers, err, want)
		}
	}
}
