package tree

import (
	"encoding/json"
	"strings"
	"testing"
)

// sample builds the small tree used across these tests:
//
//	      root
//	     /    \
//	    a(1)   b(2)
//	   /  \      \
//	c1(3,r5) c2(1,r7)  c3(4,r2)
func sample(t *testing.T) *Tree {
	t.Helper()
	b := NewBuilder()
	root := b.Root("root")
	a := b.Internal(root, 1, "a")
	bb := b.Internal(root, 2, "b")
	b.Client(a, 3, 5, "c1")
	b.Client(a, 1, 7, "c2")
	b.Client(bb, 4, 2, "c3")
	tr, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tr
}

func TestBuilderBasics(t *testing.T) {
	tr := sample(t)
	if got := tr.Len(); got != 6 {
		t.Fatalf("Len = %d, want 6", got)
	}
	if got := tr.NumClients(); got != 3 {
		t.Fatalf("NumClients = %d, want 3", got)
	}
	if got := tr.Arity(); got != 2 {
		t.Fatalf("Arity = %d, want 2", got)
	}
	if !tr.IsBinary() {
		t.Fatal("IsBinary = false, want true")
	}
	if got := tr.TotalRequests(); got != 14 {
		t.Fatalf("TotalRequests = %d, want 14", got)
	}
	if got := tr.MaxRequests(); got != 7 {
		t.Fatalf("MaxRequests = %d, want 7", got)
	}
}

func TestRootConventions(t *testing.T) {
	tr := sample(t)
	r := tr.Root()
	if !tr.IsRoot(r) {
		t.Fatal("IsRoot(root) = false")
	}
	if tr.Parent(r) != None {
		t.Fatalf("Parent(root) = %d, want None", tr.Parent(r))
	}
	if tr.Dist(r) != Infinity {
		t.Fatalf("Dist(root) = %d, want Infinity", tr.Dist(r))
	}
}

func TestClientsAndInternals(t *testing.T) {
	tr := sample(t)
	cs := tr.Clients()
	if len(cs) != 3 {
		t.Fatalf("Clients = %v, want 3 nodes", cs)
	}
	for _, c := range cs {
		if !tr.IsClient(c) {
			t.Errorf("node %d in Clients() but IsClient false", c)
		}
		if tr.Requests(c) == 0 {
			t.Errorf("client %d has zero requests in sample", c)
		}
	}
	is := tr.Internals()
	if len(is) != 3 {
		t.Fatalf("Internals = %v, want 3 nodes", is)
	}
	for _, n := range is {
		if tr.IsClient(n) {
			t.Errorf("node %d in Internals() but IsClient true", n)
		}
		if tr.Requests(n) != 0 {
			t.Errorf("internal %d has requests", n)
		}
	}
}

func TestDepthHeightPath(t *testing.T) {
	tr := sample(t)
	// Find c1 by label.
	var c1 NodeID = None
	for _, c := range tr.Clients() {
		if tr.Label(c) == "c1" {
			c1 = c
		}
	}
	if c1 == None {
		t.Fatal("c1 not found")
	}
	if got := tr.Depth(c1); got != 2 {
		t.Fatalf("Depth(c1) = %d, want 2", got)
	}
	if got := tr.Height(); got != 2 {
		t.Fatalf("Height = %d, want 2", got)
	}
	path := tr.PathToRoot(c1)
	if len(path) != 3 || path[0] != c1 || path[2] != tr.Root() {
		t.Fatalf("PathToRoot(c1) = %v", path)
	}
	if !tr.IsAncestor(tr.Root(), c1) {
		t.Fatal("root should be ancestor of c1")
	}
	if !tr.IsAncestor(c1, c1) {
		t.Fatal("IsAncestor(x, x) should be true")
	}
	if tr.IsAncestor(c1, tr.Root()) {
		t.Fatal("c1 should not be ancestor of root")
	}
}

func TestDistanceUp(t *testing.T) {
	tr := sample(t)
	var c1 NodeID
	for _, c := range tr.Clients() {
		if tr.Label(c) == "c1" {
			c1 = c
		}
	}
	a := tr.Parent(c1)
	if got := tr.DistanceUp(c1, c1); got != 0 {
		t.Fatalf("DistanceUp(c1,c1) = %d, want 0", got)
	}
	if got := tr.DistanceUp(c1, a); got != 3 {
		t.Fatalf("DistanceUp(c1,a) = %d, want 3", got)
	}
	if got := tr.DistanceUp(c1, tr.Root()); got != 4 {
		t.Fatalf("DistanceUp(c1,root) = %d, want 4", got)
	}
}

func TestSatAdd(t *testing.T) {
	if got := SatAdd(1, 2); got != 3 {
		t.Fatalf("SatAdd(1,2) = %d", got)
	}
	if got := SatAdd(Infinity, 5); got != Infinity {
		t.Fatalf("SatAdd(inf,5) = %d, want Infinity", got)
	}
	if got := SatAdd(Infinity-1, 5); got != Infinity {
		t.Fatalf("SatAdd(inf-1,5) = %d, want Infinity", got)
	}
}

func TestEligibleServers(t *testing.T) {
	tr := sample(t)
	var c1 NodeID
	for _, c := range tr.Clients() {
		if tr.Label(c) == "c1" {
			c1 = c
		}
	}
	// c1 at distance 0; a at 3; root at 4.
	cases := []struct {
		dmax int64
		want int
	}{
		{0, 1},
		{2, 1},
		{3, 2},
		{4, 3},
		{Infinity, 3},
	}
	for _, tc := range cases {
		if got := len(tr.EligibleServers(c1, tc.dmax)); got != tc.want {
			t.Errorf("EligibleServers(c1, %d) has %d nodes, want %d", tc.dmax, got, tc.want)
		}
	}
}

func TestPostOrderVisitsChildrenFirst(t *testing.T) {
	tr := sample(t)
	pos := make(map[NodeID]int)
	i := 0
	tr.PostOrder(func(j NodeID) {
		pos[j] = i
		i++
	})
	if i != tr.Len() {
		t.Fatalf("PostOrder visited %d nodes, want %d", i, tr.Len())
	}
	for j := 0; j < tr.Len(); j++ {
		id := NodeID(j)
		for _, c := range tr.Children(id) {
			if pos[c] > pos[id] {
				t.Errorf("child %d visited after parent %d", c, id)
			}
		}
	}
}

func TestPreOrderVisitsParentsFirst(t *testing.T) {
	tr := sample(t)
	pos := make(map[NodeID]int)
	i := 0
	tr.PreOrder(func(j NodeID) {
		pos[j] = i
		i++
	})
	for j := 0; j < tr.Len(); j++ {
		id := NodeID(j)
		for _, c := range tr.Children(id) {
			if pos[c] < pos[id] {
				t.Errorf("child %d visited before parent %d", c, id)
			}
		}
	}
}

func TestSubtreeRequests(t *testing.T) {
	tr := sample(t)
	sums := tr.SubtreeRequestsAll()
	if sums[tr.Root()] != tr.TotalRequests() {
		t.Fatalf("subtree sum at root = %d, want %d", sums[tr.Root()], tr.TotalRequests())
	}
	for j := 0; j < tr.Len(); j++ {
		id := NodeID(j)
		if got := tr.SubtreeRequests(id); got != sums[id] {
			t.Errorf("SubtreeRequests(%d) = %d, SubtreeRequestsAll = %d", id, got, sums[id])
		}
		if len(tr.Subtree(id)) == 0 || tr.Subtree(id)[0] != id {
			t.Errorf("Subtree(%d) should start with %d", id, id)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	tr := sample(t)
	cl := tr.Clone()
	if cl.Len() != tr.Len() || cl.Root() != tr.Root() {
		t.Fatal("clone differs structurally")
	}
	// Mutating the clone's child list must not affect the original.
	cl.ChildList[0] = 99
	if tr.ChildList[0] == 99 {
		t.Fatal("Clone shares the child list with the original")
	}
}

// TestValidateRejectsBadTrees edits the arrays of a built tree. The
// faults a JSON body can carry are pinned by TestJSONValidationErrors;
// these cover the rest, which no constructor produces but a Tree
// value can hold.
func TestValidateRejectsBadTrees(t *testing.T) {
	if err := sample(t).Validate(); err != nil {
		t.Fatalf("sample should validate, got %v", err)
	}
	// sample's child index: 0 → [1 2], 1 → [3 4], 2 → [5].
	// Each case names the first error of the depth-first walk, in
	// child order; a case with two faults must report the one the
	// walk reaches first.
	cases := []struct {
		name string
		mut  func(*Tree)
		want string
	}{
		{"internal node with requests", func(tr *Tree) { tr.Reqs[1] = 5 }, "tree: internal node 1 has requests 5"},
		{"negative requests", func(tr *Tree) { tr.Reqs[3] = -1 }, "tree: node 3 has negative requests -1"},
		{"negative edge length", func(tr *Tree) { tr.EdgeLens[3] = -2 }, "tree: node 3 has negative edge length -2"},
		{"infinite edge length", func(tr *Tree) { tr.EdgeLens[3] = Infinity }, "tree: node 3 has infinite edge length"},
		{"self-parent", func(tr *Tree) { tr.Parents[1] = 1 }, "tree: child 1 of 0 has parent 1"},
		{"unreachable node", func(tr *Tree) {
			tr.ChildList = []NodeID{1, 3, 4, 5}
			tr.ChildStart = []int32{0, 1, 3, 4, 4, 4, 4}
		}, "tree: node 2 unreachable from root"},
		{"child listed twice", func(tr *Tree) { tr.ChildList[3] = 3 }, "tree: node 3 reached twice (cycle or shared child)"},
		{"out-of-range child", func(tr *Tree) { tr.ChildList[4] = 9 }, "tree: node 2 has out-of-range child 9"},
		{"root out of range", func(tr *Tree) { tr.root = 9 }, "tree: root 9 out of range"},
		{"root with a parent", func(tr *Tree) { tr.Parents[0] = 2 }, "tree: root 0 has a parent"},
		{"first fault in walk order", func(tr *Tree) { tr.Reqs[5] = -1; tr.EdgeLens[4] = -1 }, "tree: node 4 has negative edge length -1"},
		{"short array", func(tr *Tree) { tr.Reqs = tr.Reqs[:5] }, "tree: node arrays disagree in length"},
		{"child index short of the list", func(tr *Tree) { tr.ChildStart[6] = 4 }, "tree: child index does not span the child list"},
		{"child index backwards", func(tr *Tree) { tr.ChildStart[2] = 1 }, "tree: child index of node 1 runs backwards"},
		{"stored preorder", func(tr *Tree) { tr.Pre[2], tr.Pre[3] = tr.Pre[3], tr.Pre[2] }, "tree: stored preorder has node 4 at 2, the walk has 3"},
		{"stored postorder", func(tr *Tree) { tr.Post[0], tr.Post[5] = tr.Post[5], tr.Post[0] }, "tree: stored postorder has node 0 at 0, the walk has 3"},
		{"bad order behind a structural fault", func(tr *Tree) { tr.Pre[1] = 5; tr.Reqs[4] = -1 }, "tree: node 4 has negative requests -1"},
	}
	for _, c := range cases {
		tr := sample(t).Clone()
		c.mut(tr)
		if err := tr.Validate(); err == nil || err.Error() != c.want {
			t.Errorf("%s: got %v, want %q", c.name, err, c.want)
		}
	}
	// Empty and single-node trees.
	empty := &Tree{}
	if err := empty.Validate(); err == nil || err.Error() != "tree: empty tree" {
		t.Errorf("empty tree: got %v", err)
	}
	single := &Tree{Parents: []NodeID{None}, EdgeLens: []int64{0}, Reqs: []int64{3}, Labels: []string{""},
		ChildStart: []int32{0, 0}, Pre: []NodeID{0}, Post: []NodeID{0}}
	if err := single.Validate(); err == nil || err.Error() != "tree: root must be an internal node (paper: r ∈ N)" {
		t.Errorf("single-node tree: got %v", err)
	}
}

func TestBuilderPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("double root", func() {
		b := NewBuilder()
		b.Root("r")
		b.Root("r2")
	})
	expectPanic("child before root", func() {
		b := NewBuilder()
		b.Internal(0, 1, "x")
	})
	expectPanic("unknown parent", func() {
		b := NewBuilder()
		b.Root("r")
		b.Client(42, 1, 1, "c")
	})
}

func TestBuildErrors(t *testing.T) {
	if _, err := NewBuilder().Build(); err == nil {
		t.Error("Build without root should fail")
	}
	b := NewBuilder()
	b.Root("r")
	if _, err := b.Build(); err == nil {
		t.Error("root without children should fail")
	}
	b2 := NewBuilder()
	r := b2.Root("r")
	b2.Client(r, -1, 1, "c")
	if _, err := b2.Build(); err == nil {
		t.Error("negative distance should fail")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := sample(t)
	data, err := json.Marshal(tr)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	var back Tree
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.Len() != tr.Len() || back.Root() != tr.Root() {
		t.Fatal("round trip changed structure")
	}
	for j := 0; j < tr.Len(); j++ {
		id := NodeID(j)
		if back.Parent(id) != tr.Parent(id) ||
			back.Requests(id) != tr.Requests(id) ||
			back.Label(id) != tr.Label(id) {
			t.Errorf("node %d differs after round trip", id)
		}
		if id != tr.Root() && back.Dist(id) != tr.Dist(id) {
			t.Errorf("node %d dist differs after round trip", id)
		}
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped tree invalid: %v", err)
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	bad := []string{
		`{"root":0,"nodes":[]}`,
		`{"root":0,"nodes":[{"id":5,"parent":-1}]}`,
		`{"root":0,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":7,"dist":1}]}`,
		`not json`,
	}
	for _, s := range bad {
		var tr Tree
		if err := json.Unmarshal([]byte(s), &tr); err == nil {
			t.Errorf("Unmarshal(%q) should fail", s)
		}
	}
}

func TestDOT(t *testing.T) {
	tr := sample(t)
	dot := tr.DOT(map[NodeID]bool{tr.Root(): true})
	for _, want := range []string{"digraph", "lightblue", "r=5", "->"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

func TestNameFallback(t *testing.T) {
	b := NewBuilder()
	r := b.Root("")
	b.Client(r, 1, 1, "")
	tr := b.MustBuild()
	if got := tr.Name(r); got != "n0" {
		t.Errorf("Name(root) = %q, want n0", got)
	}
	if got := tr.Name(1); got != "c1" {
		t.Errorf("Name(client) = %q, want c1", got)
	}
}

func TestStringSummary(t *testing.T) {
	tr := sample(t)
	s := tr.String()
	if !strings.Contains(s, "nodes=6") || !strings.Contains(s, "clients=3") {
		t.Errorf("String() = %q", s)
	}
}
