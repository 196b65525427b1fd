package tree_test

// Property tests for the subtree partitioner: over random and
// structured shapes and a spread of targets, pieces must be disjoint,
// cover the tree exactly, stay valid instances, and carry boundary
// records consistent with the original tree.

import (
	"math"
	"math/rand"
	"testing"

	"replicatree/internal/gen"
	"replicatree/internal/tree"
)

func partitionShapes(t *testing.T) map[string]*tree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	return map[string]*tree.Tree{
		"random":      gen.RandomTree(rng, gen.TreeConfig{Internals: 60, MaxArity: 4, ExtraClients: 40}),
		"binary":      gen.RandomBinary(rng, 50, 3, 10),
		"caterpillar": gen.Caterpillar(rng, 40, 3, 10),
		"complete":    gen.CompleteBinary(rng, 6, 3, 10),
	}
}

func TestPartitionFlatProperties(t *testing.T) {
	for name, tr := range partitionShapes(t) {
		f := tr
		for _, target := range []int{2, 8, 32, 1 << 20} {
			pieces := tree.PartitionFlat(f, target)
			if len(pieces) == 0 {
				t.Fatalf("%s target %d: no pieces", name, target)
			}
			if target >= f.Len() && len(pieces) != 1 {
				t.Fatalf("%s target %d >= len %d: want a single piece, got %d", name, target, f.Len(), len(pieces))
			}
			if pieces[0].Boundary.Root != f.Root() {
				t.Fatalf("%s target %d: first piece rooted at %d, want the global root %d",
					name, target, pieces[0].Boundary.Root, f.Root())
			}
			// Disjoint and covering: every node in exactly one piece.
			seen := make(map[tree.NodeID]int)
			for pi, p := range pieces {
				if len(p.Nodes) == 0 || p.Nodes[0] != p.Boundary.Root {
					t.Fatalf("%s target %d piece %d: Nodes[0] != Boundary.Root", name, target, pi)
				}
				for _, g := range p.Nodes {
					if prev, dup := seen[g]; dup {
						t.Fatalf("%s target %d: node %d in pieces %d and %d", name, target, g, prev, pi)
					}
					seen[g] = pi
				}
			}
			if len(seen) != f.Len() {
				t.Fatalf("%s target %d: pieces cover %d of %d nodes", name, target, len(seen), f.Len())
			}
			// Boundary records match the original tree, and demands add up.
			var demand int64
			for _, p := range pieces {
				pb := p.Boundary
				demand += pb.Demand
				if pb.Root == f.Root() {
					if pb.CutParent != tree.None || pb.CutEdge != 0 || pb.UpDist != 0 {
						t.Fatalf("%s target %d: root piece has a cut edge: %+v", name, target, pb)
					}
				} else {
					if pb.CutParent != f.Parents[pb.Root] {
						t.Fatalf("%s target %d: piece %d cut parent %d, want %d",
							name, target, pb.Root, pb.CutParent, f.Parents[pb.Root])
					}
					if pb.CutEdge != f.EdgeLens[pb.Root] {
						t.Fatalf("%s target %d: piece %d cut edge %d, want %d",
							name, target, pb.Root, pb.CutEdge, f.EdgeLens[pb.Root])
					}
					var up int64
					for cur := pb.Root; cur != f.Root(); cur = f.Parents[cur] {
						up += f.EdgeLens[cur]
					}
					if pb.UpDist != up {
						t.Fatalf("%s target %d: piece %d UpDist %d, want %d", name, target, pb.Root, pb.UpDist, up)
					}
					if pb.SubtreeDemand != tr.SubtreeRequests(pb.Root) {
						t.Fatalf("%s target %d: piece %d SubtreeDemand %d, want %d",
							name, target, pb.Root, pb.SubtreeDemand, tr.SubtreeRequests(pb.Root))
					}
				}
			}
			if total := tr.TotalRequests(); demand != total {
				t.Fatalf("%s target %d: piece demands sum to %d, want %d", name, target, demand, total)
			}
		}
	}
}

// TestPieceBoundarySaturates: UpDist is the saturating sum of the edge
// lengths on the piece root's path, SatAdd folded along it, even when
// those lengths add up past math.MaxInt64, and SubtreeDemand is the
// demand of the root's whole original subtree. The shapes are a spine
// of long edges, each spine node carrying a client, cut into pieces of
// four, and a caterpillar at target 8.
func TestPieceBoundarySaturates(t *testing.T) {
	b := tree.NewBuilder()
	cur := b.Root("")
	for i := 0; i < 40; i++ {
		b.Client(cur, int64(i), int64(1+i%5), "")
		cur = b.Internal(cur, math.MaxInt64/2+int64(i), "")
	}
	b.Client(cur, 3, 7, "")
	spine := b.MustBuild()
	rng := rand.New(rand.NewSource(8))
	for name, tc := range map[string]struct {
		f      *tree.Tree
		target int
	}{
		"spine":       {spine, 4},
		"caterpillar": {gen.Caterpillar(rng, 200, 9, 10), 8},
	} {
		pieces := tree.PartitionFlat(tc.f, tc.target)
		if len(pieces) < 4 {
			t.Fatalf("%s: %d pieces, want a real partition", name, len(pieces))
		}
		saturated := false
		for _, p := range pieces {
			pb := p.Boundary
			var up int64
			for cur := pb.Root; cur != tc.f.Root(); cur = tc.f.Parents[cur] {
				up = tree.SatAdd(up, tc.f.EdgeLens[cur])
			}
			saturated = saturated || up == math.MaxInt64
			if pb.UpDist != up {
				t.Fatalf("%s: piece %d UpDist %d, want %d", name, pb.Root, pb.UpDist, up)
			}
			if want := tc.f.SubtreeRequests(pb.Root); pb.SubtreeDemand != want {
				t.Fatalf("%s: piece %d SubtreeDemand %d, want %d", name, pb.Root, pb.SubtreeDemand, want)
			}
		}
		if name == "spine" && !saturated {
			t.Fatal("spine: no piece root lies past math.MaxInt64")
		}
	}
}

func TestPieceTreeRoundTrip(t *testing.T) {
	for name, tr := range partitionShapes(t) {
		f := tr
		for _, target := range []int{2, 8, 32} {
			pieces := tree.PartitionFlat(f, target)
			for _, p := range pieces {
				pt, err := tree.PieceTree(f, p)
				if err != nil {
					t.Fatalf("%s target %d piece %d: %v", name, target, p.Boundary.Root, err)
				}
				if pt.Len() != len(p.Nodes) {
					t.Fatalf("%s target %d piece %d: %d nodes, want %d",
						name, target, p.Boundary.Root, pt.Len(), len(p.Nodes))
				}
				// Local ID i is global p.Nodes[i]: structure, edge
				// lengths and client requests must match the original.
				var reqs int64
				for i := 0; i < pt.Len(); i++ {
					local := tree.NodeID(i)
					g := p.Nodes[i]
					if i > 0 {
						lp := pt.Parent(local)
						if p.Nodes[lp] != f.Parents[g] {
							t.Fatalf("%s piece %d: local %d parent mismatch", name, p.Boundary.Root, i)
						}
						if pt.Dist(local) != f.EdgeLens[g] {
							t.Fatalf("%s piece %d: local %d edge length mismatch", name, p.Boundary.Root, i)
						}
					}
					if pt.IsClient(local) {
						reqs += pt.Requests(local)
						if !f.IsClient(g) && pt.Requests(local) != 0 {
							t.Fatalf("%s piece %d: cut-away internal %d gained requests", name, p.Boundary.Root, g)
						}
						if f.IsClient(g) && pt.Requests(local) != f.Reqs[g] {
							t.Fatalf("%s piece %d: client %d requests mismatch", name, p.Boundary.Root, g)
						}
					}
				}
				if reqs != p.Boundary.Demand {
					t.Fatalf("%s piece %d: piece tree demand %d, want boundary demand %d",
						name, p.Boundary.Root, reqs, p.Boundary.Demand)
				}
			}
		}
	}
}

// TestPieceTreeMalformed: PieceTree builds from the piece's own
// local parents, so a piece whose lists disagree, or whose parents are
// not topological, is refused rather than built wrong.
func TestPieceTreeMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := gen.RandomTree(rng, gen.TreeConfig{Internals: 40, MaxArity: 3, ExtraClients: 20})
	pieces := tree.PartitionFlat(f, 8)
	if len(pieces) < 2 {
		t.Fatal("expected several pieces")
	}
	p := pieces[1]
	bad := map[string]tree.Piece{
		"no nodes":         {Boundary: p.Boundary},
		"root mismatch":    {Boundary: p.Boundary, Nodes: p.Nodes[1:], Parents: p.Parents[1:]},
		"short parents":    {Boundary: p.Boundary, Nodes: p.Nodes, Parents: p.Parents[:len(p.Parents)-1]},
		"no parents":       {Boundary: p.Boundary, Nodes: p.Nodes},
		"parent not first": {Boundary: p.Boundary, Nodes: p.Nodes, Parents: append([]tree.NodeID{tree.None, 1}, p.Parents[2:]...)},
		"second root":      {Boundary: p.Boundary, Nodes: p.Nodes, Parents: append([]tree.NodeID{tree.None, tree.None}, p.Parents[2:]...)},
	}
	for name, bp := range bad {
		if _, err := tree.PieceTree(f, bp); err == nil {
			t.Errorf("%s: PieceTree accepted the piece", name)
		}
	}
}

func TestPartitionPointsPieceSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := gen.RandomTree(rng, gen.TreeConfig{Internals: 400, MaxArity: 3, ExtraClients: 300})
	f := tr
	target := 16
	pieces := tree.PartitionFlat(f, target)
	if len(pieces) < 2 {
		t.Fatalf("expected a real partition, got %d pieces", len(pieces))
	}
	// Non-root pieces are at least target nodes (the cut fired) and at
	// most 1 + arity·(target-1) (every child subtree was just under).
	maxPiece := 1 + 3*(target-1)
	for _, p := range pieces[1:] {
		if len(p.Nodes) < target {
			t.Fatalf("piece %d has %d nodes, want >= %d", p.Boundary.Root, len(p.Nodes), target)
		}
		if len(p.Nodes) > maxPiece {
			t.Fatalf("piece %d has %d nodes, want <= %d", p.Boundary.Root, len(p.Nodes), maxPiece)
		}
	}
}
