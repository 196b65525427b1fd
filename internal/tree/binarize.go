package tree

// Binarization: transform an arbitrary-arity distribution tree into a
// binary one by chaining the children of wide nodes through virtual
// internal nodes connected by zero-length edges.
//
// The transform preserves all client-to-ancestor distances (virtual
// edges have length 0), but it *adds candidate server locations* — the
// virtual nodes. Consequently, for the Multiple policy, the optimum of
// the binarized instance is a lower bound on the optimum of the
// original instance, and Algorithm 3 (exact on binary trees without
// distance constraints) turns into a polynomial lower-bound engine for
// general trees. See core.BinarizedLowerBound.

// Binarized couples the transformed tree with the mapping back to the
// original node IDs.
type Binarized struct {
	Tree *Tree
	// Orig[j] is the original node a binarized node j corresponds to;
	// virtual nodes map to the original node whose children they
	// chain (so projecting a placement keeps it on the original
	// node's position in the hierarchy).
	Orig []NodeID
	// Virtual[j] reports whether binarized node j was inserted by the
	// transform.
	Virtual []bool
}

// Binarize returns an equivalent-distance binary tree. Nodes with more
// than two children keep their first child and push the remaining
// children under a chain of virtual nodes attached with zero-length
// edges:
//
//	    x                    x
//	 / | | \       →        / \
//	a  b c  d              a   v1(0)
//	                           / \
//	                          b   v2(0)
//	                              / \
//	                             c   d
//
// Trees that are already binary are copied structurally (the result is
// always a fresh tree).
func Binarize(t *Tree) *Binarized {
	b := &Binarized{}
	nb := NewBuilder()

	var build func(orig NodeID, parent NodeID, dist int64)
	record := func(id NodeID, orig NodeID, virtual bool) {
		// Builder assigns dense increasing IDs, so appending stays in
		// sync with the tree.
		if int(id) != len(b.Orig) {
			panic("tree: binarize bookkeeping out of sync")
		}
		b.Orig = append(b.Orig, orig)
		b.Virtual = append(b.Virtual, virtual)
	}

	var attach func(children []NodeID, parent NodeID, orig NodeID)
	attach = func(children []NodeID, parent NodeID, orig NodeID) {
		switch len(children) {
		case 0:
			return
		case 1:
			build(children[0], parent, t.EdgeLens[children[0]])
		case 2:
			build(children[0], parent, t.EdgeLens[children[0]])
			build(children[1], parent, t.EdgeLens[children[1]])
		default:
			build(children[0], parent, t.EdgeLens[children[0]])
			v := nb.Internal(parent, 0, "")
			record(v, orig, true)
			attach(children[1:], v, orig)
		}
	}

	build = func(orig NodeID, parent NodeID, dist int64) {
		if t.IsClient(orig) {
			id := nb.Client(parent, dist, t.Reqs[orig], t.Label(orig))
			record(id, orig, false)
			return
		}
		id := nb.Internal(parent, dist, t.Label(orig))
		record(id, orig, false)
		attach(t.Children(orig), id, orig)
	}

	rootID := nb.Root(t.Label(t.root))
	record(rootID, t.root, false)
	attach(t.Children(t.root), rootID, t.root)

	b.Tree = nb.MustBuild()
	return b
}

// Project maps a set of binarized node IDs back to original node IDs.
// Virtual nodes map to the original node they were expanded from, so
// the projected set may be smaller than the input (several virtual
// nodes collapse onto one original node).
func (b *Binarized) Project(nodes []NodeID) []NodeID {
	seen := make(map[NodeID]bool, len(nodes))
	var out []NodeID
	for _, j := range nodes {
		o := b.Orig[j]
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	return out
}
