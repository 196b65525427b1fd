package tree_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"replicatree/internal/gen"
	"replicatree/internal/tree"
)

// mustValidate fails unless tr passes the validating walk.
func mustValidate(t *testing.T, what string, tr *tree.Tree) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s: constructor returned a tree that fails Validate: %v", what, err)
	}
}

// shuffledJSON is tr as a JSON node list whose IDs are permuted and
// listed in random order, so the decoders cannot use the linear orders
// and must run the validating walk.
func shuffledJSON(t *testing.T, rng *rand.Rand, tr *tree.Tree) []byte {
	t.Helper()
	perm := rng.Perm(tr.Len())
	nodes := make([]tree.NodeRecord, tr.Len())
	for j := range nodes {
		p := tr.Parents[j]
		if p != tree.None {
			p = tree.NodeID(perm[p])
		}
		nodes[j] = tree.NodeRecord{ID: tree.NodeID(perm[j]), Parent: p, Dist: tr.EdgeLens[j],
			Requests: tr.Reqs[j], Label: tr.Label(tree.NodeID(j))}
	}
	rng.Shuffle(len(nodes), func(a, b int) { nodes[a], nodes[b] = nodes[b], nodes[a] })
	raw, err := json.Marshal(struct {
		Root  tree.NodeID       `json:"root"`
		Nodes []tree.NodeRecord `json:"nodes"`
	}{tree.NodeID(perm[tr.Root()]), nodes})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestConstructorsYieldValidTrees pins the invariant core's
// Instance.Validate rests on: every constructor returns a tree that
// passes the validating walk, and so does every tree an Editor hands
// out, so no consumer needs to walk a tree again. ReadChunked is held
// to it in internal/core.
func TestConstructorsYieldValidTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	shapes := partitionShapes(t) // each built by a Builder
	fi, err := gen.RandomFlatInstance(rng, 3000, gen.TreeConfig{MaxArity: 5}, true)
	if err != nil {
		t.Fatal(err)
	}
	shapes["flat"] = fi.Flat
	for i := 0; i < 20; i++ {
		shapes[fmt.Sprintf("random%d", i)] = gen.RandomTree(rng, gen.TreeConfig{
			Internals: 1 + rng.Intn(40), MaxArity: 1 + rng.Intn(5), ExtraClients: rng.Intn(10),
		})
	}
	for name, tr := range shapes {
		mustValidate(t, name+": Builder.Build", tr)
		raw, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range [][]byte{raw, shuffledJSON(t, rng, tr)} {
			for path, dec := range decodeBoth(t, body) {
				mustValidate(t, fmt.Sprintf("%s: JSON decode path %d", name, path), dec)
			}
		}
		mustValidate(t, name+": Clone", tr.Clone())
		mustValidate(t, name+": Binarize", tree.Binarize(tr).Tree)
		for _, target := range []int{2, 16, 1 << 20} {
			for _, p := range tree.PartitionFlat(tr, target) {
				pt, err := tree.PieceTree(tr, p)
				if err != nil {
					t.Fatalf("%s: piece %d: %v", name, p.Boundary.Root, err)
				}
				mustValidate(t, fmt.Sprintf("%s: PieceTree of piece %d (target %d)", name, p.Boundary.Root, target), pt)
			}
		}

		ed := tree.NewEditor(tr)
		for step := 0; step < 60; step++ {
			n := tree.NodeID(rng.Intn(ed.Len()))
			// Refused edits (a leaf under a client, a rate on an
			// internal node, a negative rate or length) must leave
			// the tree valid too.
			switch rng.Intn(3) {
			case 0:
				_, _ = ed.AddLeaf(n, rng.Int63n(6)-1, rng.Int63n(11)-1, "")
			case 1:
				_ = ed.SetRequests(n, rng.Int63n(11)-1)
			default:
				_ = ed.SetEdgeLen(n, rng.Int63n(6)-1)
			}
			if step%7 == 0 {
				mustValidate(t, fmt.Sprintf("%s: Editor.Tree after %d edits", name, step+1), ed.Tree())
			}
		}
		mustValidate(t, name+": Editor.Tree", ed.Tree())
	}
}
