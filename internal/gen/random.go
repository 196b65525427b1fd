package gen

import (
	"math/rand"

	"replicatree/internal/core"
	"replicatree/internal/tree"
)

// TreeConfig controls random tree generation. Zero fields take the
// documented defaults.
type TreeConfig struct {
	Internals int   // number of internal nodes (default 4)
	MaxArity  int   // maximum children per node (default 3)
	MaxDist   int64 // edge lengths drawn uniformly from [1, MaxDist] (default 3)
	MaxReq    int64 // client requests drawn uniformly from [1, MaxReq] (default 10)
	// ExtraClients adds this many clients beyond the one-per-leaf
	// minimum, attached to random internal nodes with arity headroom.
	ExtraClients int
}

func (c TreeConfig) norm() TreeConfig {
	if c.Internals <= 0 {
		c.Internals = 4
	}
	if c.MaxArity < 2 {
		c.MaxArity = 3
	}
	if c.MaxDist <= 0 {
		c.MaxDist = 3
	}
	if c.MaxReq <= 0 {
		c.MaxReq = 10
	}
	return c
}

// RandomTree generates a random distribution tree: a random internal
// skeleton of cfg.Internals nodes with arity at most cfg.MaxArity,
// every childless internal node then receives a client, and
// cfg.ExtraClients more clients are attached where arity allows.
func RandomTree(rng *rand.Rand, cfg TreeConfig) *tree.Tree {
	cfg = cfg.norm()
	b := tree.NewBuilder()
	root := b.Root("")
	internals := []tree.NodeID{root}
	arity := map[tree.NodeID]int{root: 0}

	dist := func() int64 { return 1 + rng.Int63n(cfg.MaxDist) }
	req := func() int64 { return 1 + rng.Int63n(cfg.MaxReq) }

	for len(internals) < cfg.Internals {
		// Attach a new internal node to a random node with headroom.
		// Reserve one slot on leaf-internal nodes for their client.
		p := internals[rng.Intn(len(internals))]
		if arity[p] >= cfg.MaxArity {
			continue
		}
		n := b.Internal(p, dist(), "")
		arity[p]++
		arity[n] = 0
		internals = append(internals, n)
	}
	// Every childless internal node gets one client so leaves are
	// exactly the clients.
	for _, n := range internals {
		if arity[n] == 0 {
			b.Client(n, dist(), req(), "")
			arity[n]++
		}
	}
	for added := 0; added < cfg.ExtraClients; {
		p := internals[rng.Intn(len(internals))]
		if arity[p] >= cfg.MaxArity {
			// Find any node with headroom to guarantee progress.
			found := false
			for _, q := range internals {
				if arity[q] < cfg.MaxArity {
					p, found = q, true
					break
				}
			}
			if !found {
				break
			}
		}
		b.Client(p, dist(), req(), "")
		arity[p]++
		added++
	}
	return b.MustBuild()
}

// RandomBinary generates a random binary tree with the given number of
// internal nodes.
func RandomBinary(rng *rand.Rand, internals int, maxDist, maxReq int64) *tree.Tree {
	return RandomTree(rng, TreeConfig{
		Internals:    internals,
		MaxArity:     2,
		MaxDist:      maxDist,
		MaxReq:       maxReq,
		ExtraClients: rng.Intn(internals + 1),
	})
}

// Caterpillar generates a spine of n internal nodes with one client
// each (a binary caterpillar), the worst-case shape for tree-depth
// sensitive behaviour.
func Caterpillar(rng *rand.Rand, n int, maxDist, maxReq int64) *tree.Tree {
	if n < 1 {
		n = 1
	}
	if maxDist <= 0 {
		maxDist = 3
	}
	if maxReq <= 0 {
		maxReq = 10
	}
	b := tree.NewBuilder()
	cur := b.Root("")
	for i := 0; i < n-1; i++ {
		b.Client(cur, 1+rng.Int63n(maxDist), 1+rng.Int63n(maxReq), "")
		cur = b.Internal(cur, 1+rng.Int63n(maxDist), "")
	}
	b.Client(cur, 1+rng.Int63n(maxDist), 1+rng.Int63n(maxReq), "")
	b.Client(cur, 1+rng.Int63n(maxDist), 1+rng.Int63n(maxReq), "")
	return b.MustBuild()
}

// CompleteBinary generates a complete binary tree of the given depth
// with clients at the 2^depth leaf positions.
func CompleteBinary(rng *rand.Rand, depth int, maxDist, maxReq int64) *tree.Tree {
	if depth < 1 {
		depth = 1
	}
	if maxDist <= 0 {
		maxDist = 3
	}
	if maxReq <= 0 {
		maxReq = 10
	}
	b := tree.NewBuilder()
	root := b.Root("")
	var grow func(p tree.NodeID, d int)
	grow = func(p tree.NodeID, d int) {
		if d == depth {
			return
		}
		for k := 0; k < 2; k++ {
			dist := 1 + rng.Int63n(maxDist)
			if d == depth-1 {
				b.Client(p, dist, 1+rng.Int63n(maxReq), "")
			} else {
				grow(b.Internal(p, dist, ""), d+1)
			}
		}
	}
	grow(root, 0)
	return b.MustBuild()
}

// RandomInstance wraps a random tree into an instance whose capacity
// is set so that a few clients share a server (W is drawn between the
// largest request and roughly a third of the total) and whose dmax is
// drawn to make the distance constraint bite without making the
// instance infeasible under Single (dmax ≥ 0 always keeps R = C
// feasible).
func RandomInstance(rng *rand.Rand, cfg TreeConfig, withDistance bool) *core.Instance {
	t := RandomTree(rng, cfg)
	maxR := t.MaxRequests()
	total := t.TotalRequests()
	hi := total/2 + 1
	if hi <= maxR {
		hi = maxR + 1
	}
	W := maxR + rng.Int63n(hi-maxR)
	dmax := core.NoDistance
	if withDistance {
		// A bound around the typical root distance.
		h := int64(t.Height())
		if h < 1 {
			h = 1
		}
		cfgDist := cfg.norm().MaxDist
		dmax = 1 + rng.Int63n(h*cfgDist+1)
	}
	return &core.Instance{Tree: t, W: W, DMax: dmax}
}

// Shapes names the tree families ShapedTree draws.
var Shapes = []string{"binary", "arity4", "star", "path"}

// ShapedTree draws a random tree of the named shape around the given
// number of internal nodes: "binary" and "arity4" are RandomTree
// skeletons of that arity, "star" is a root over internals+1 clients
// and "path" a Caterpillar spine with one client per internal node.
func ShapedTree(rng *rand.Rand, shape string, internals int, maxDist, maxReq int64) *tree.Tree {
	cfg := TreeConfig{Internals: internals, MaxArity: 2, MaxDist: maxDist, MaxReq: maxReq, ExtraClients: rng.Intn(internals + 1)}
	switch shape {
	case "arity4":
		cfg.MaxArity = 4
	case "star":
		cfg = TreeConfig{Internals: 1, MaxArity: internals + 1, MaxDist: maxDist, MaxReq: maxReq, ExtraClients: internals}
	case "path":
		return Caterpillar(rng, internals, maxDist, maxReq)
	}
	return RandomTree(rng, cfg)
}
