package tree_test

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"replicatree/internal/gen"
	"replicatree/internal/tree"
)

// rebuild replays a tree node by node in ID order through Builder.Add.
// Builder-produced trees are topological (parents before children), so
// ID order is a valid arrival order.
func rebuild(t *testing.T, tr *tree.Tree) *tree.Tree {
	t.Helper()
	b := tree.NewBuilder()
	b.Grow(tr.Len())
	for j := 0; j < tr.Len(); j++ {
		got, err := b.Add(tr.Parents[j], tr.EdgeLens[j], tr.Reqs[j], tr.Label(tree.NodeID(j)))
		if err != nil {
			t.Fatalf("Add(%d): %v", j, err)
		}
		if got != tree.NodeID(j) {
			t.Fatalf("Add(%d) assigned ID %d", j, got)
		}
	}
	out, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return out
}

// TestFlatBuilderMatchesFlatten pins the constructors against each
// other: replaying a generated tree through Builder.Add and decoding
// its JSON must both give the identical tree, orders included, for
// every generator shape.
func TestFlatBuilderMatchesFlatten(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shapes := map[string]*tree.Tree{
		"random":      gen.RandomTree(rng, gen.TreeConfig{Internals: 40, MaxArity: 4, ExtraClients: 25}),
		"caterpillar": gen.Caterpillar(rng, 30, 3, 10),
		"complete":    gen.CompleteBinary(rng, 5, 3, 10),
	}
	for name, tr := range shapes {
		if got := rebuild(t, tr); !reflect.DeepEqual(got, tr) {
			t.Fatalf("%s: Builder.Add replay differs from the original", name)
		}
		data, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		var back tree.Tree
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&back, tr) {
			t.Fatalf("%s: JSON decode differs from the original", name)
		}
	}
}

func TestFlatBuilderErrors(t *testing.T) {
	t.Run("non-root without parent", func(t *testing.T) {
		b := tree.NewBuilder()
		if _, err := b.Add(tree.None, 0, 0, ""); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Add(tree.None, 1, 0, ""); err == nil {
			t.Fatal("second parentless node accepted")
		}
	})
	t.Run("forward parent reference", func(t *testing.T) {
		b := tree.NewBuilder()
		if _, err := b.Add(tree.None, 0, 0, ""); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Add(5, 1, 0, ""); err == nil {
			t.Fatal("forward parent accepted")
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := tree.NewBuilder().Build(); err == nil || err.Error() != "tree: empty tree" {
			t.Fatalf("empty build: %v", err)
		}
	})
	t.Run("leaf root", func(t *testing.T) {
		b := tree.NewBuilder()
		if _, err := b.Add(tree.None, 0, 0, ""); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Build(); err == nil {
			t.Fatal("childless root accepted")
		}
	})
	t.Run("internal with requests", func(t *testing.T) {
		b := tree.NewBuilder()
		if _, err := b.Add(tree.None, 0, 0, ""); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Add(0, 1, 7, ""); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Add(1, 1, 3, ""); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Build(); err == nil || err.Error() != "tree: internal node 1 has requests 7" {
			t.Fatalf("internal node with requests: %v", err)
		}
	})
	t.Run("reuse after build", func(t *testing.T) {
		// Build hands the tree over and leaves the builder empty.
		b := tree.NewBuilder()
		b.Add(tree.None, 0, 0, "")
		b.Add(0, 1, 2, "")
		tr, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.Add(0, 1, 2, ""); err == nil {
			t.Fatal("Add under a node of the built tree accepted")
		}
		if _, err := b.Build(); err == nil {
			t.Fatal("second Build accepted")
		}
		if tr.Len() != 2 {
			t.Fatalf("built tree changed to %d nodes", tr.Len())
		}
	})
}
