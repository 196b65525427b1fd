package gen

import (
	"fmt"
	"math/rand"

	"replicatree/internal/core"
	"replicatree/internal/tree"
)

// RandomFlatInstance generates a random instance of approximately
// nodes total tree nodes, added in topological order to a
// tree.Builder — no JSON blob ever exists, so generating a
// million-node instance costs just the tree's arrays plus O(nodes)
// generator state. It is the huge-tree form of RandomInstance and
// uses the same attachment process (random
// open-internal skeleton, clients on childless internals, fill with
// extra clients) and the same W/dmax draw, so small outputs look like
// RandomInstance outputs. cfg.Internals and cfg.ExtraClients are
// ignored — the node budget drives both.
//
// Output IDs are topological (parents before children), which is
// exactly what the chunked wire format (core.WriteChunked) requires.
// Generation is deterministic in (rng sequence, nodes, cfg,
// withDistance).
func RandomFlatInstance(rng *rand.Rand, nodes int, cfg TreeConfig, withDistance bool) (*core.FlatInstance, error) {
	cfg = cfg.norm()
	if nodes < 3 {
		nodes = 3
	}
	// 1 + internals + (one client per childless internal) + fill never
	// exceeds the budget: childless ≤ internals and 1 + 2·internals ≤
	// nodes. MaxArity ≥ 2 guarantees the skeleton can host that many
	// clients.
	internals := (nodes - 1) / 2

	fb := tree.NewBuilder()
	fb.Grow(nodes)
	root, err := fb.Add(tree.None, 0, 0, "")
	if err != nil {
		return nil, err
	}
	dist := func() int64 { return 1 + rng.Int63n(cfg.MaxDist) }
	req := func() int64 { return 1 + rng.Int63n(cfg.MaxReq) }

	// open lists internal nodes with arity headroom; exhausted entries
	// swap-remove lazily on pick.
	open := []tree.NodeID{root}
	arity := make([]int32, 1, nodes)
	depth := make([]int64, 1, nodes) // distance to the root, for the dmax draw
	pick := func() (tree.NodeID, bool) {
		for len(open) > 0 {
			i := rng.Intn(len(open))
			p := open[i]
			if int(arity[p]) < cfg.MaxArity {
				return p, true
			}
			open[i] = open[len(open)-1]
			open = open[:len(open)-1]
		}
		return 0, false
	}

	var total, maxR, maxDepth int64
	add := func(parent tree.NodeID, requests int64) (tree.NodeID, error) {
		d := dist()
		id, err := fb.Add(parent, d, requests, "")
		if err != nil {
			return id, err
		}
		arity[parent]++
		arity = append(arity, 0)
		dep := depth[parent] + d
		depth = append(depth, dep)
		if dep > maxDepth {
			maxDepth = dep
		}
		total += requests
		if requests > maxR {
			maxR = requests
		}
		return id, nil
	}

	// Random internal skeleton.
	for fb.Len() < 1+internals {
		p, ok := pick()
		if !ok {
			break
		}
		id, err := add(p, 0)
		if err != nil {
			return nil, err
		}
		open = append(open, id)
	}
	// Every childless internal gets one client so leaves are exactly
	// the clients (skeleton IDs are 0..Len-1 at this point).
	skeleton := fb.Len()
	for j := 0; j < skeleton; j++ {
		if arity[j] == 0 {
			if _, err := add(tree.NodeID(j), req()); err != nil {
				return nil, err
			}
		}
	}
	// Fill the remaining budget with clients wherever headroom allows.
	for fb.Len() < nodes {
		p, ok := pick()
		if !ok {
			break
		}
		if _, err := add(p, req()); err != nil {
			return nil, err
		}
	}

	f, err := fb.Build()
	if err != nil {
		return nil, fmt.Errorf("gen: flat instance: %w", err)
	}
	// Same capacity/distance draw as RandomInstance: W between the
	// largest request and roughly half the total (so a few clients
	// share a server, and self-service keeps every draw feasible),
	// dmax around the typical root distance.
	hi := total/2 + 1
	if hi <= maxR {
		hi = maxR + 1
	}
	W := maxR + rng.Int63n(hi-maxR)
	dmax := core.NoDistance
	if withDistance {
		h := maxDepth
		if h < 1 {
			h = 1
		}
		dmax = 1 + rng.Int63n(h+1)
	}
	return &core.FlatInstance{Flat: f, W: W, DMax: dmax}, nil
}
