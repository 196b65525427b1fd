package tree

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// buildSample returns a small fixed tree exercising arity > 2, labels
// and zero-request clients.
func buildSample(t *testing.T) *Tree {
	t.Helper()
	b := NewBuilder()
	r := b.Root("root")
	n1 := b.Internal(r, 2, "n1")
	n2 := b.Internal(r, 1, "")
	b.Client(n1, 3, 7, "c1")
	b.Client(n1, 1, 0, "c2")
	n3 := b.Internal(n2, 4, "n3")
	b.Client(n2, 2, 5, "")
	b.Client(n3, 1, 9, "c4")
	b.Client(n3, 2, 4, "c5")
	b.Client(n3, 3, 1, "c6")
	return b.MustBuild()
}

// randomTreeForFlat grows a random tree through the Builder.
func randomTreeForFlat(rng *rand.Rand, internals, maxArity int) *Tree {
	b := NewBuilder()
	parents := []NodeID{b.Root("")}
	for i := 1; i < internals; i++ {
		p := parents[rng.Intn(len(parents))]
		parents = append(parents, b.Internal(p, 1+rng.Int63n(4), ""))
	}
	for _, p := range parents {
		kids := 1 + rng.Intn(maxArity)
		for k := 0; k < kids; k++ {
			b.Client(p, 1+rng.Int63n(4), rng.Int63n(10), "")
		}
	}
	return b.MustBuild()
}

func sampleTrees(t *testing.T, seed int64, n int) []*Tree {
	trees := []*Tree{buildSample(t)}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		trees = append(trees, randomTreeForFlat(rng, 1+rng.Intn(40), 1+rng.Intn(5)))
	}
	return trees
}

// TestFlattenRoundTrip: a copy made by FlattenInto, into an empty tree
// or over a larger one, and a JSON round trip both give the identical
// tree back.
func TestFlattenRoundTrip(t *testing.T) {
	big := randomTreeForFlat(rand.New(rand.NewSource(1)), 60, 4)
	for ti, tr := range sampleTrees(t, 42, 20) {
		var fresh Tree
		FlattenInto(&fresh, tr)
		over := big.Clone()
		FlattenInto(over, tr)
		data, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		var back Tree
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("tree %d: %v", ti, err)
		}
		for name, got := range map[string]*Tree{"copy": &fresh, "copy over a larger tree": over, "JSON": &back} {
			if !reflect.DeepEqual(got, tr) {
				t.Fatalf("tree %d: %s round trip not identical", ti, name)
			}
		}
	}
}

// TestFlatMatchesTreeQueries holds the accessors to the arrays they
// read, and the child index to the parent array.
func TestFlatMatchesTreeQueries(t *testing.T) {
	for ti, tr := range sampleTrees(t, 7, 10) {
		clients, arity := 0, 0
		var maxReq int64
		for j := 0; j < tr.Len(); j++ {
			id := NodeID(j)
			label := ""
			if len(tr.Labels) > 0 {
				label = tr.Labels[j]
			}
			if tr.Parent(id) != tr.Parents[j] || tr.Requests(id) != tr.Reqs[j] || tr.Label(id) != label {
				t.Fatalf("tree %d node %d: accessors disagree with the arrays", ti, j)
			}
			if id != tr.Root() && tr.Dist(id) != tr.EdgeLens[j] {
				t.Fatalf("tree %d node %d: Dist %d, EdgeLens %d", ti, j, tr.Dist(id), tr.EdgeLens[j])
			}
			kids := tr.Children(id)
			if len(kids) != tr.NumChildren(id) || tr.IsClient(id) != (len(kids) == 0) {
				t.Fatalf("tree %d node %d: child count disagrees", ti, j)
			}
			if !slices.IsSorted(kids) {
				t.Fatalf("tree %d node %d: children %v out of ID order", ti, j, kids)
			}
			for _, c := range kids {
				if tr.Parents[c] != id {
					t.Fatalf("tree %d: child %d of %d has parent %d", ti, c, j, tr.Parents[c])
				}
			}
			if len(kids) == 0 {
				clients++
			}
			arity = max(arity, len(kids))
			maxReq = max(maxReq, tr.Reqs[j])
		}
		if tr.NumClients() != clients || tr.Arity() != arity || tr.IsBinary() != (arity <= 2) || tr.MaxRequests() != maxReq {
			t.Fatalf("tree %d: aggregate queries disagree", ti)
		}
		if got := len(tr.ChildList); got != tr.Len()-1 {
			t.Fatalf("tree %d: child list has %d entries, want %d", ti, got, tr.Len()-1)
		}
	}
}

// TestFlatTraversalPermutations holds the stored orders to recursive
// traversals of the child lists.
func TestFlatTraversalPermutations(t *testing.T) {
	for ti, tr := range sampleTrees(t, 11, 10) {
		var pre, post []NodeID
		var rec func(j NodeID)
		rec = func(j NodeID) {
			pre = append(pre, j)
			for _, c := range tr.Children(j) {
				rec(c)
			}
			post = append(post, j)
		}
		rec(tr.Root())
		if !reflect.DeepEqual(tr.Pre, pre) {
			t.Fatalf("tree %d: preorder mismatch:\n stored %v\n walked %v", ti, tr.Pre, pre)
		}
		if !reflect.DeepEqual(tr.Post, post) {
			t.Fatalf("tree %d: postorder mismatch:\n stored %v\n walked %v", ti, tr.Post, post)
		}
		if got := tr.Subtree(tr.Root()); !reflect.DeepEqual(got, pre) {
			t.Fatalf("tree %d: Subtree(root) %v, want the preorder", ti, got)
		}
	}
}

// TestFlattenIntoReuse pins the copy contract: copying a same-shape
// tree into a warmed one performs no allocations.
func TestFlattenIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tr := randomTreeForFlat(rng, 30, 3)
	var f Flat
	FlattenInto(&f, tr)
	avg := testing.AllocsPerRun(20, func() {
		FlattenInto(&f, tr)
	})
	if avg != 0 {
		t.Fatalf("FlattenInto on a warmed tree allocated %.1f times per run", avg)
	}
	if !reflect.DeepEqual(tr, &f) {
		t.Fatal("copy after reuse not identical")
	}
}
