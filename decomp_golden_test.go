package replicatree_test

// Decomposition parity over the golden corpus: on instances small
// enough that every whole-tree engine solves them, the decomposition
// pipeline forced down to tiny pieces must still produce feasible
// placements with the exact same lower bound. This file also links
// internal/decomp into the root test binary, so the golden manifest's
// decomp rows resolve in TestGoldenCorpus.

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/decomp"
)

func TestDecompGoldenParity(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
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
			// The default inner engine (multiple-greedy) requires
			// ri ≤ W; the corpus gadgets that violate it are exact-only
			// territory, matching their missing decomp manifest rows.
			continue
		}
		fi := &core.FlatInstance{Flat: in.Tree, W: in.W, DMax: in.DMax}
		for _, target := range []int{4, 16} {
			res, err := decomp.SolveFlat(ctx, fi, decomp.Options{TargetPieceSize: target, Verify: true})
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
