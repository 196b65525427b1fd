package tree

import (
	"fmt"
	"sort"
)

// This file implements the subtree partitioner behind the decomp
// engine (internal/decomp): a bottom-up accumulate-and-cut pass that
// splits a Tree at subtree roots into balanced pieces. Every cut is
// at an articulation subtree — the piece hanging below a cut node is
// a complete subtree minus its own descendant pieces — so each piece
// is itself a valid rooted tree and couples to the rest of the
// instance only through the single cut edge recorded in its boundary.

// PieceBoundary records how a piece connects to the rest of the tree:
// the single cut edge above the piece root plus the aggregate demand
// figures the coordinator needs to reason about the piece without
// reading its nodes.
type PieceBoundary struct {
	// Root is the piece's root in global IDs.
	Root NodeID
	// CutParent is Root's parent in the original tree, None for the
	// piece containing the global root.
	CutParent NodeID
	// CutEdge is δ(Root), the length of the cut edge (0 for the root
	// piece).
	CutEdge int64
	// UpDist is the total edge length from Root up to the global root
	// — the residual depth budget: a client at in-piece depth d sits
	// at distance d+UpDist from the global root.
	UpDist int64
	// Demand is the total requests of clients inside the piece.
	Demand int64
	// SubtreeDemand is the total requests of the entire original
	// subtree rooted at Root (Demand plus everything cut away below).
	SubtreeDemand int64
}

// Piece is one element of a partition: a boundary record plus the
// piece's node set in global preorder (Nodes[0] == Boundary.Root,
// every other node's parent precedes it in the slice). Parents[i] is
// the parent of Nodes[i] as a local ID, an index into Nodes (None for
// the piece root).
type Piece struct {
	Boundary PieceBoundary
	Nodes    []NodeID
	Parents  []NodeID
}

// PartitionFlat splits f into pieces of roughly target nodes each.
// It is shorthand for BuildPieces(f, PartitionPoints(f, target)).
func PartitionFlat(f *Tree, target int) []Piece {
	return BuildPieces(f, PartitionPoints(f, target))
}

// PartitionPoints runs the accumulate-and-cut pass and returns the
// cut nodes in increasing ID order (the global root is never listed;
// it is implicitly always a piece root). Walking the postorder, each
// node accumulates the sizes of its children's uncut remainders; an
// internal non-root node whose accumulated size reaches target
// becomes a cut. Pieces therefore have between target and roughly
// 1 + maxArity·(target-1) nodes, except the root piece which may be
// smaller. An empty slice (single piece = whole tree) is valid.
func PartitionPoints(f *Tree, target int) []NodeID {
	if target < 2 {
		target = 2
	}
	n := f.Len()
	if n <= target {
		return nil
	}
	root := f.Root()
	acc := make([]int64, n)
	var cuts []NodeID
	for _, j := range f.Post {
		sz := int64(1)
		for _, c := range f.Children(j) {
			sz += acc[c]
		}
		// A cut needs sz >= target >= 2, which implies at least one
		// uncut child: the piece root stays internal inside its piece.
		if j != root && sz >= int64(target) {
			cuts = append(cuts, j)
			sz = 0
		}
		acc[j] = sz
	}
	// acc[root] == 1 means every child of the root was itself cut,
	// leaving the root piece a bare root — not a valid instance. Merge
	// the smallest-ID child cut back into the root piece.
	if len(cuts) > 0 && acc[root] == 1 {
		drop := None
		for _, c := range cuts {
			if f.Parents[c] == root && (drop == None || c < drop) {
				drop = c
			}
		}
		out := cuts[:0]
		for _, c := range cuts {
			if c != drop {
				out = append(out, c)
			}
		}
		cuts = out
	}
	sort.Slice(cuts, func(i, k int) bool { return cuts[i] < cuts[k] })
	return cuts
}

// BuildPieces materialises the partition induced by the given cut
// nodes (each must be an internal non-root node). Pieces are returned
// in preorder of their roots, so the piece containing the global root
// is always first and every piece comes after the piece its cut parent
// lies in. Every node of f lands in exactly one piece.
func BuildPieces(f *Tree, cuts []NodeID) []Piece {
	n := f.Len()
	isCut := make([]bool, n)
	for _, c := range cuts {
		isCut[c] = true
	}
	root := f.Root()
	isCut[root] = true

	// First pass, in preorder: each node's piece and its local ID (its
	// index in the piece's Nodes).
	pieces := make([]Piece, 0, len(cuts)+1)
	var sizes []NodeID
	pieceOf := make([]int32, n)
	local := make([]NodeID, n)
	for _, j := range f.Pre {
		if isCut[j] {
			pieceOf[j] = int32(len(pieces))
			pieces = append(pieces, Piece{Boundary: PieceBoundary{Root: j, CutParent: None}})
			sizes = append(sizes, 0)
		} else {
			pieceOf[j] = pieceOf[f.Parents[j]]
		}
		k := pieceOf[j]
		local[j] = sizes[k]
		sizes[k]++
	}

	// Second pass, in ID order: every piece's Nodes and Parents, cut at
	// their exact sizes from one array each, and its Demand.
	nodes, parents := make([]NodeID, n), make([]NodeID, n)
	for k, off := 0, NodeID(0); k < len(pieces); k++ {
		end := off + sizes[k]
		pieces[k].Nodes, pieces[k].Parents = nodes[off:end:end], parents[off:end:end]
		off = end
	}
	for j := range n {
		p := &pieces[pieceOf[j]]
		i := local[j]
		p.Nodes[i] = NodeID(j)
		p.Parents[i] = None
		if !isCut[j] {
			p.Parents[i] = local[f.Parents[j]]
		}
		p.Boundary.Demand += f.Reqs[j]
	}

	// The rest of each boundary, per piece. UpDist is the parent
	// piece's plus the path up to that piece's root, which is at most
	// the parent piece's height long; SubtreeDemand gathers the pieces
	// below, each added into its parent piece in reverse preorder.
	for k := range pieces {
		pb := &pieces[k].Boundary
		pb.SubtreeDemand = pb.Demand
		if pb.Root == root {
			continue
		}
		pb.CutParent, pb.CutEdge = f.Parents[pb.Root], f.EdgeLens[pb.Root]
		up := pb.CutEdge
		cur := pb.CutParent
		for ; !isCut[cur]; cur = f.Parents[cur] {
			up = SatAdd(up, f.EdgeLens[cur])
		}
		pb.UpDist = SatAdd(up, pieces[pieceOf[cur]].Boundary.UpDist)
	}
	for k := len(pieces) - 1; k > 0; k-- {
		pb := &pieces[k].Boundary
		pieces[pieceOf[pb.CutParent]].Boundary.SubtreeDemand += pb.SubtreeDemand
	}
	return pieces
}

// PieceTree materialises piece p as a standalone Tree with dense local
// IDs: local ID i is global ID p.Nodes[i] (in particular the local root
// 0 is the piece root), which is also how callers map a piece solution
// back to global IDs. Internal nodes whose children were all cut away
// become zero-request leaf clients — valid per Tree.Validate, and
// harmless: they demand nothing.
func PieceTree(f *Tree, p Piece) (*Tree, error) {
	if len(p.Nodes) == 0 || p.Nodes[0] != p.Boundary.Root || len(p.Parents) != len(p.Nodes) {
		return nil, fmt.Errorf("tree: malformed piece (root %d)", p.Boundary.Root)
	}
	var b Builder
	b.Grow(len(p.Nodes))
	for i, g := range p.Nodes {
		dist := int64(0)
		if i > 0 {
			dist = f.EdgeLens[g]
		}
		if _, err := b.Add(p.Parents[i], dist, f.Reqs[g], f.Label(g)); err != nil {
			return nil, err
		}
	}
	return b.Build()
}
