package tree

import (
	"encoding/json"
	"math/rand"
	"slices"
	"testing"
)

// referenceOrder is order as it stood before the linear passes: size
// Pre and Post, then record them with the validating walk. It is the
// oracle the linear orders are held to.
func referenceOrder(t *Tree) error {
	n := len(t.Parents)
	t.Pre = make([]NodeID, n)
	t.Post = make([]NodeID, n)
	return t.walk(true)
}

// checkOrders fails unless build(root, list) and place plus
// referenceOrder agree: the same error text, or the same orders.
func checkOrders(t *testing.T, root NodeID, list []NodeRecord) {
	t.Helper()
	want, wantErr := place(root, list)
	if wantErr == nil {
		wantErr = referenceOrder(want)
	}
	got, gotErr := build(root, list)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("root %d, nodes %+v: error %v, reference %v", root, list, gotErr, wantErr)
	case gotErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("root %d, nodes %+v: error %q, reference %q", root, list, gotErr, wantErr)
		}
	case !slices.Equal(got.Pre, want.Pre) || !slices.Equal(got.Post, want.Post):
		t.Fatalf("root %d, nodes %+v: pre %v post %v, reference pre %v post %v",
			root, list, got.Pre, got.Post, want.Pre, want.Post)
	default:
		if err := got.Validate(); err != nil {
			t.Fatalf("root %d, nodes %+v: built tree fails Validate: %v", root, list, err)
		}
	}
}

// records lists t's nodes as wire records, in ID order.
func records(t *Tree) []NodeRecord {
	list := make([]NodeRecord, t.Len())
	for j := range list {
		list[j] = NodeRecord{ID: NodeID(j), Parent: t.Parents[j], Dist: t.EdgeLens[j], Requests: t.Reqs[j]}
	}
	return list
}

// TestOrderMatchesWalk holds the linear orders to the walk's on random
// trees: as built (topological IDs, the linear passes) and with their
// IDs shuffled (the walk).
func TestOrderMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		tr := randomTreeForFlat(rng, 1+rng.Intn(40), 2+rng.Intn(5))
		list := records(tr)
		checkOrders(t, 0, list)
		perm := rng.Perm(len(list))
		for k := range list {
			list[k].ID = NodeID(perm[list[k].ID])
			if p := list[k].Parent; p != None {
				list[k].Parent = NodeID(perm[p])
			}
		}
		rng.Shuffle(len(list), func(a, b int) { list[a], list[b] = list[b], list[a] })
		checkOrders(t, NodeID(perm[0]), list)
	}
}

// TestEditNonTopologicalIDs edits a decoded tree whose IDs are not
// topological (a child before its parent, both in ID and in list
// order): the re-index after AddLeaf must record the walk's orders.
func TestEditNonTopologicalIDs(t *testing.T) {
	body := `{"root":0,"nodes":[` +
		`{"id":1,"parent":2,"dist":1,"requests":3},` +
		`{"id":0,"parent":-1,"dist":0},` +
		`{"id":2,"parent":0,"dist":2},` +
		`{"id":3,"parent":0,"dist":1,"requests":4}]}`
	var tr Tree
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatal(err)
	}
	ed := NewEditor(&tr)
	if _, err := ed.AddLeaf(2, 1, 5, "c4"); err != nil {
		t.Fatal(err)
	}
	got := ed.Tree()
	want := got.Clone()
	if err := referenceOrder(want); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Pre, want.Pre) || !slices.Equal(got.Post, want.Post) {
		t.Fatalf("pre %v post %v, walk pre %v post %v", got.Pre, got.Post, want.Pre, want.Post)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

// decodeOrderCase turns fuzz bytes into a root and a node list. By
// default the list is a valid tree with topological IDs; flag bits
// per node replace its ID (duplicates, out of range), its parent
// (several roots, cycles, later nodes, out of range) or its values
// (negative, infinite, requests on internal nodes), and a leading
// byte may permute all IDs and the list order.
func decodeOrderCase(data []byte) (NodeID, []NodeRecord) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%24
	shape := next()
	list := make([]NodeRecord, n)
	keep := make([]bool, n)
	for i := range list {
		op := next()
		nd := NodeRecord{ID: NodeID(i), Parent: None, Dist: int64(next() % 5)}
		if i > 0 {
			nd.Parent = NodeID(next() % i)
		}
		if op&1 != 0 {
			nd.ID = NodeID(next()%(n+2) - 1)
		}
		if op&2 != 0 {
			nd.Parent = NodeID(next()%(n+3) - 2)
		}
		switch op >> 2 & 3 {
		case 1:
			nd.Dist = -1
		case 2:
			nd.Dist = Infinity
		}
		nd.Requests = int64(next() % 4)
		if op&16 != 0 {
			nd.Requests = -1
		}
		keep[i] = op&32 != 0
		list[i] = nd
	}
	// Internal nodes carry no requests unless a flag keeps them.
	for i := range list {
		if p := list[i].Parent; p >= 0 && int(p) < n && !keep[p] {
			list[p].Requests = 0
		}
	}
	root := NodeID(0)
	if shape&1 != 0 {
		root = NodeID(next()%(n+2) - 1)
	}
	if shape&2 != 0 {
		perm := make([]NodeID, n)
		for k := range perm {
			perm[k] = NodeID(k)
		}
		for k := range perm {
			m := next() % n
			perm[k], perm[m] = perm[m], perm[k]
		}
		mapID := func(j NodeID) NodeID {
			if j >= 0 && int(j) < n {
				return perm[j]
			}
			return j
		}
		for k := range list {
			list[k].ID, list[k].Parent = mapID(list[k].ID), mapID(list[k].Parent)
		}
		root = mapID(root)
		for k := range list {
			m := next() % n
			list[k], list[m] = list[m], list[k]
		}
	}
	return root, list
}

// FuzzTreeOrder holds order to the walk-based reference on decoded
// node lists: the same Pre and Post, or the same error text.
func FuzzTreeOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0})
	f.Add([]byte{9, 2, 0, 0, 0, 1, 0, 3, 2, 0, 1, 1, 4, 0, 3, 2, 1, 5, 7, 3, 1})
	f.Add([]byte{7, 0, 1, 0, 0, 3, 0, 2, 1, 0, 2, 1, 2, 1, 5, 0, 0, 4})
	f.Add([]byte{11, 3, 2, 4, 1, 0, 16, 2, 1, 3, 4, 8, 1, 2, 2, 1, 6, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		root, list := decodeOrderCase(data)
		checkOrders(t, root, list)
	})
}
