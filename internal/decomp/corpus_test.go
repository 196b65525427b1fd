package decomp

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
)

// TestDecompGoldenParity: on the golden corpus, instances small enough
// that every whole-tree engine solves them, the pipeline forced down to
// tiny pieces must still produce feasible placements with the exact
// same lower bound.
func TestDecompGoldenParity(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	checked := 0
	for _, f := range files {
		if filepath.Base(f) == "manifest.json" {
			continue
		}
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var in core.Instance
		if err := json.Unmarshal(raw, &in); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if !in.FitsLocally() {
			// Greedy requires ri ≤ W; the corpus gadgets that violate
			// it are exact-only territory, matching their missing
			// decomp manifest rows.
			continue
		}
		for _, target := range []int{4, 16} {
			res, err := forced(ctx, flatOf(&in), target)
			if err != nil {
				t.Errorf("%s target %d: %v", f, target, err)
				continue
			}
			if err := core.Verify(&in, core.Multiple, res.Solution); err != nil {
				t.Errorf("%s target %d: infeasible: %v", f, target, err)
			}
			if want := core.LowerBound(&in); res.LowerBound != want {
				t.Errorf("%s target %d: lower bound %d, want %d", f, target, res.LowerBound, want)
			}
			if res.Replicas < res.LowerBound {
				t.Errorf("%s target %d: replicas %d below the bound %d", f, target, res.Replicas, res.LowerBound)
			}
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("only %d corpus solves ran; corpus missing?", checked)
	}
}

// TestZeroDMaxChunkedDecomp: a dmax = 0 instance (every client served
// locally) read back from the chunked stream decomposes into 8-node
// pieces to a placement that verifies against both the streamed and
// the original instance, with the original's lower bound.
func TestZeroDMaxChunkedDecomp(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 40, MaxArity: 3, MaxDist: 3, MaxReq: 8}, true)
	in.DMax = 0
	var buf bytes.Buffer
	if err := core.WriteChunked(&buf, flatOf(in), 16); err != nil {
		t.Fatalf("WriteChunked: %v", err)
	}
	got, err := core.ReadChunked(&buf)
	if err != nil {
		t.Fatalf("ReadChunked: %v", err)
	}
	res, err := forced(context.Background(), got, 8)
	if err != nil {
		t.Fatalf("solveFlat: %v", err)
	}
	flatErr := got.Verify(core.Multiple, res.Solution)
	ptrErr := core.Verify(in, core.Multiple, res.Solution)
	if flatErr != nil || ptrErr != nil {
		t.Fatalf("decomp solution: streamed verify %v, verify %v", flatErr, ptrErr)
	}
	if res.LowerBound != core.LowerBound(in) {
		t.Fatalf("decomp lower bound %d, lower bound %d", res.LowerBound, core.LowerBound(in))
	}
}
