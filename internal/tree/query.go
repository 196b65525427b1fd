package tree

// This file holds derived queries over a Tree: traversals, distance and
// subtree computations, and aggregate statistics. All are O(|T|) or
// better and none mutate the tree.

// Clients returns the client (leaf) nodes in increasing ID order.
func (t *Tree) Clients() []NodeID {
	out := make([]NodeID, 0, t.Len())
	for j := range t.Parents {
		if t.IsClient(NodeID(j)) {
			out = append(out, NodeID(j))
		}
	}
	return out
}

// Internals returns the internal nodes in increasing ID order.
func (t *Tree) Internals() []NodeID {
	out := make([]NodeID, 0, t.Len())
	for j := range t.Parents {
		if !t.IsClient(NodeID(j)) {
			out = append(out, NodeID(j))
		}
	}
	return out
}

// NumClients returns |C|.
func (t *Tree) NumClients() int {
	n := 0
	for j := range t.Parents {
		if t.IsClient(NodeID(j)) {
			n++
		}
	}
	return n
}

// Arity returns Δ, the maximum number of children of any node.
func (t *Tree) Arity() int {
	a := 0
	for j := range t.Parents {
		a = max(a, t.NumChildren(NodeID(j)))
	}
	return a
}

// IsBinary reports whether every node has at most two children.
func (t *Tree) IsBinary() bool { return t.Arity() <= 2 }

// TotalRequests returns Σ ri over all clients.
func (t *Tree) TotalRequests() int64 {
	var sum int64
	for _, r := range t.Reqs {
		sum += r
	}
	return sum
}

// MaxRequests returns max ri over all clients (0 for an all-internal,
// hence invalid, tree).
func (t *Tree) MaxRequests() int64 {
	var m int64
	for _, r := range t.Reqs {
		m = max(m, r)
	}
	return m
}

// Depth returns the number of edges on the path from j to the root.
func (t *Tree) Depth(j NodeID) int {
	d := 0
	for j != t.root {
		j = t.Parents[j]
		d++
	}
	return d
}

// Height returns the maximum depth over all nodes.
func (t *Tree) Height() int {
	depth := make([]int32, t.Len())
	var h int32
	for _, j := range t.Pre {
		if j != t.root {
			depth[j] = depth[t.Parents[j]] + 1
			h = max(h, depth[j])
		}
	}
	return int(h)
}

// PathToRoot returns the node path i = i1 → i2 → … → ik = root.
func (t *Tree) PathToRoot(i NodeID) []NodeID {
	var path []NodeID
	for {
		path = append(path, i)
		if i == t.root {
			return path
		}
		i = t.Parents[i]
	}
}

// IsAncestor reports whether a is an ancestor of j (or a == j).
func (t *Tree) IsAncestor(a, j NodeID) bool {
	for {
		if j == a {
			return true
		}
		if j == t.root {
			return false
		}
		j = t.Parents[j]
	}
}

// DistanceUp returns the sum of edge lengths on the path from i up to
// ancestor a. It panics if a is not an ancestor of i. DistanceUp(i, i)
// is 0.
func (t *Tree) DistanceUp(i, a NodeID) int64 {
	var d int64
	for i != a {
		if i == t.root {
			panic("tree: DistanceUp target is not an ancestor")
		}
		d = satAdd(d, t.EdgeLens[i])
		i = t.Parents[i]
	}
	return d
}

// satAdd adds two non-negative int64 saturating at Infinity.
func satAdd(a, b int64) int64 {
	if a > Infinity-b {
		return Infinity
	}
	return a + b
}

// SatAdd exposes saturating addition of non-negative edge lengths for
// other packages that accumulate distances against the Infinity
// sentinel.
func SatAdd(a, b int64) int64 { return satAdd(a, b) }

// PostOrder calls fn on every node in post-order (children before
// parents), which is the traversal order of all bottom-up algorithms
// in this repository.
func (t *Tree) PostOrder(fn func(j NodeID)) {
	for _, j := range t.Post {
		fn(j)
	}
}

// PreOrder calls fn on every node in pre-order (parents before
// children).
func (t *Tree) PreOrder(fn func(j NodeID)) {
	for _, j := range t.Pre {
		fn(j)
	}
}

// Subtree returns all nodes of subtree(j), including j, in pre-order.
func (t *Tree) Subtree(j NodeID) []NodeID {
	var out []NodeID
	t.subtree(j, func(k NodeID) { out = append(out, k) })
	return out
}

// SubtreeRequests returns Σ ri over clients in subtree(j).
func (t *Tree) SubtreeRequests(j NodeID) int64 {
	var sum int64
	t.subtree(j, func(k NodeID) { sum += t.Reqs[k] })
	return sum
}

// subtree calls fn on the nodes of subtree(j) in pre-order, keeping
// its path on the heap: a child's range of ChildList is pushed in
// reverse, so the first child pops first.
func (t *Tree) subtree(j NodeID, fn func(k NodeID)) {
	stack := []NodeID{j}
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		fn(k)
		kids := t.Children(k)
		for i := len(kids) - 1; i >= 0; i-- {
			stack = append(stack, kids[i])
		}
	}
}

// SubtreeRequestsAll returns, for every node j, Σ ri over clients in
// subtree(j), computed in a single post-order pass.
func (t *Tree) SubtreeRequestsAll() []int64 {
	sums := make([]int64, t.Len())
	for _, j := range t.Post {
		s := t.Reqs[j]
		for _, c := range t.Children(j) {
			s += sums[c]
		}
		sums[j] = s
	}
	return sums
}

// EligibleServers returns, for client i, the nodes on the path from i
// to the root that are within distance dmax of i — the candidate
// servers for i's requests under both policies. The client itself
// (distance 0) is always included.
func (t *Tree) EligibleServers(i NodeID, dmax int64) []NodeID {
	var out []NodeID
	var d int64
	j := i
	for {
		if d <= dmax {
			out = append(out, j)
		} else {
			break
		}
		if j == t.root {
			break
		}
		d = satAdd(d, t.EdgeLens[j])
		j = t.Parents[j]
	}
	return out
}
