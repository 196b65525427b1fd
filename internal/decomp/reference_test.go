package decomp

import (
	"cmp"
	"slices"

	"replicatree/internal/core"
	"replicatree/internal/tree"
)

// referenceCoordinate is the first boundary coordinator, kept as the
// oracle of coordinate: every round it recomputes loads and replica
// flags over all n nodes, counting-sorts the whole assignment list by
// (server, client) through n+1 buckets, walks every exported client up
// to its piece root, and after the last round sorts the list by
// (client, server) for Normalize. It mutates sol in place and returns
// the rounds executed and the replicas retired.
func referenceCoordinate(fi *core.FlatInstance, pieces []tree.Piece, sol *core.Solution, maxRounds int) (rounds, moved int) {
	if maxRounds <= 0 || len(pieces) <= 1 {
		return 0, 0
	}
	f := fi.Flat
	n := f.Len()
	c := &refCoord{
		fi:      fi,
		f:       f,
		pieces:  pieces,
		sol:     sol,
		pieceOf: make([]int32, n),
		loads:   make([]int64, n),
		isRep:   make([]bool, n),
		count:   make([]int32, n+1),
	}
	for k := range pieces {
		for _, g := range pieces[k].Nodes {
			c.pieceOf[g] = int32(k)
		}
	}
	c.rootPiece = c.pieceOf[f.Root()]
	for r := 1; r <= maxRounds; r++ {
		retired := c.round()
		rounds = r
		moved += retired
		if retired == 0 {
			break
		}
	}
	c.sortBy(sol.Assignments, false)
	return rounds, moved
}

// move is one planned re-routing of part of a client's flow.
type move struct {
	client tree.NodeID
	to     tree.NodeID
	amt    int64
}

type refCoord struct {
	fi        *core.FlatInstance
	f         *tree.Tree
	pieces    []tree.Piece
	pieceOf   []int32
	rootPiece int32
	sol       *core.Solution
	loads     []int64
	isRep     []bool
	upCache   map[int32][]upServer
	count     []int32
	tmp       []core.Assignment
}

// sortBy sorts asg by (server, client) if byServer, else by (client,
// server), with two stable counting passes; equal pairs keep their
// order.
func (c *refCoord) sortBy(asg []core.Assignment, byServer bool) {
	c.tmp = slices.Grow(c.tmp[:0], len(asg))[:len(asg)]
	c.pass(c.tmp, asg, !byServer)
	c.pass(asg, c.tmp, byServer)
}

func (c *refCoord) pass(dst, src []core.Assignment, byServer bool) {
	key := func(a core.Assignment) tree.NodeID {
		if byServer {
			return a.Server
		}
		return a.Client
	}
	count := c.count
	clear(count)
	for _, a := range src {
		count[key(a)+1]++
	}
	for k := 1; k < len(count); k++ {
		count[k] += count[k-1]
	}
	for _, a := range src {
		k := key(a)
		dst[count[k]] = a
		count[k]++
	}
}

func (c *refCoord) group(s tree.NodeID) (lo, hi int) {
	if s > 0 {
		lo = int(c.count[s-1])
	}
	return lo, int(c.count[s])
}

func (c *refCoord) round() int {
	sol := c.sol
	for i := range c.loads {
		c.loads[i] = 0
		c.isRep[i] = false
	}
	for _, r := range sol.Replicas {
		c.isRep[r] = true
	}
	for _, a := range sol.Assignments {
		c.loads[a.Server] += a.Amount
	}
	c.sortBy(sol.Assignments, true)

	var cands []tree.NodeID
	for _, r := range sol.Replicas {
		if c.pieceOf[r] != c.rootPiece {
			cands = append(cands, r)
		}
	}
	slices.SortFunc(cands, func(a, b tree.NodeID) int {
		if la, lb := c.loads[a], c.loads[b]; la != lb {
			return cmp.Compare(la, lb)
		}
		return int(a) - int(b)
	})

	c.upCache = make(map[int32][]upServer, len(c.pieces))
	targeted := make(map[tree.NodeID]bool)
	planned := make(map[tree.NodeID]int64)
	var plan []move
	retired := 0
	for _, s := range cands {
		if targeted[s] || !c.isRep[s] {
			continue
		}
		lo, hi := c.group(s)
		if lo == hi {
			c.isRep[s] = false
			retired++
			continue
		}
		ups := c.ups(c.pieceOf[s])
		if len(ups) == 0 {
			continue
		}
		plan = plan[:0]
		feasible := true
		for i := lo; i < hi && feasible; i++ {
			a := sol.Assignments[i]
			d0 := c.distToPieceRoot(a.Client, c.pieceOf[s])
			remaining := a.Amount
			for _, u := range ups {
				if !c.isRep[u.node] {
					continue
				}
				d := tree.SatAdd(d0, u.dist)
				if d > c.fi.DMax {
					break
				}
				spare := c.fi.W - c.loads[u.node] - planned[u.node]
				if spare <= 0 {
					continue
				}
				take := min(remaining, spare)
				plan = append(plan, move{client: a.Client, to: u.node, amt: take})
				planned[u.node] += take
				remaining -= take
				if remaining == 0 {
					break
				}
			}
			if remaining > 0 {
				feasible = false
			}
		}
		if !feasible {
			for _, m := range plan {
				planned[m.to] -= m.amt
			}
			continue
		}
		for _, m := range plan {
			c.loads[m.to] += m.amt
			planned[m.to] -= m.amt
			targeted[m.to] = true
			sol.Assignments = append(sol.Assignments, core.Assignment{Client: m.client, Server: m.to, Amount: m.amt})
		}
		for i := lo; i < hi; i++ {
			sol.Assignments[i].Amount = 0
		}
		c.isRep[s] = false
		c.loads[s] = 0
		retired++
	}
	if retired > 0 {
		out := sol.Assignments[:0]
		for _, a := range sol.Assignments {
			if a.Amount > 0 {
				out = append(out, a)
			}
		}
		sol.Assignments = out
		reps := sol.Replicas[:0]
		for _, r := range sol.Replicas {
			if c.isRep[r] {
				reps = append(reps, r)
			}
		}
		sol.Replicas = reps
	}
	return retired
}

func (c *refCoord) ups(k int32) []upServer {
	if v, ok := c.upCache[k]; ok {
		return v
	}
	f := c.f
	root := f.Root()
	var out []upServer
	d := int64(0)
	for cur := c.pieces[k].Boundary.Root; cur != root; {
		d = tree.SatAdd(d, f.EdgeLens[cur])
		cur = f.Parents[cur]
		if d > c.fi.DMax {
			break
		}
		if c.isRep[cur] {
			out = append(out, upServer{node: cur, dist: d})
		}
	}
	c.upCache[k] = out
	return out
}

func (c *refCoord) distToPieceRoot(client tree.NodeID, k int32) int64 {
	f := c.f
	root := c.pieces[k].Boundary.Root
	d := int64(0)
	for cur := client; cur != root; cur = f.Parents[cur] {
		d = tree.SatAdd(d, f.EdgeLens[cur])
	}
	return d
}
