package core_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/wire"
)

// TestConstructorsYieldValidTrees is the core half of the tree
// package's test of the same name: Instance.Validate does not walk the
// tree, because the instance decoders and ReadChunked, scanned or
// through encoding/json, only ever return trees that pass the
// validating walk.
func TestConstructorsYieldValidTrees(t *testing.T) {
	check := func(what string, in *core.Instance) {
		t.Helper()
		if err := in.Tree.Validate(); err != nil {
			t.Fatalf("%s: returned a tree that fails Validate: %v", what, err)
		}
	}
	bothPaths := func(what string, decode func() *core.Instance) {
		t.Helper()
		check(what+" (scanned)", decode())
		defer wire.SetReferenceOnly(wire.SetReferenceOnly(true))
		check(what+" (encoding/json)", decode())
	}

	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*_*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus instances: %v", err)
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		bothPaths(file, func() *core.Instance {
			var in core.Instance
			if err := json.Unmarshal(data, &in); err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			return &in
		})
	}

	rng := rand.New(rand.NewSource(41))
	for _, nodes := range []int{1, 2, 50, 20_000} {
		fi, err := gen.RandomFlatInstance(rng, nodes, gen.TreeConfig{MaxArity: 4}, nodes%2 == 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 7, 0} {
			var buf bytes.Buffer
			if err := core.WriteChunked(&buf, fi, chunk); err != nil {
				t.Fatal(err)
			}
			bothPaths("ReadChunked", func() *core.Instance {
				got, err := core.ReadChunked(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("%d nodes, chunk %d: %v", nodes, chunk, err)
				}
				return &core.Instance{Tree: got.Flat, W: got.W, DMax: got.DMax}
			})
		}
	}
}
