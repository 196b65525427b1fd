package decomp

import (
	"cmp"
	"context"
	"runtime/pprof"
	"slices"
	"strconv"

	"replicatree/internal/core"
	"replicatree/internal/tree"
)

// Boundary coordination. Each piece was solved blind to its
// surroundings, so replicas just below a cut edge often sit
// half-empty while an ancestor replica above the cut has spare
// capacity — capacity the piece could not see. The coordination pass
// re-splits capacity across the cut edges with a dual-style price
// signal: a replica's price is its load (spare capacity is cheap),
// and each round the cheapest boundary replicas try to export their
// entire flow to ancestor replicas above their piece root, retiring
// themselves on success. Moves must stay feasible — receiving
// replicas never exceed W, and every re-routed client still meets the
// distance bound via its full client→ancestor path — so the stitched
// solution remains feasible after every round. Each retirement
// removes one replica, monotonically closing the gap toward the
// subtree-sum lower bound; the loop stops at quiescence (a round that
// retires nothing) or after maxRounds.

// upServer is an ancestor replica above a piece root, dist edges up.
type upServer struct {
	node tree.NodeID
	dist int64 // distance from the piece root to node
}

// move is one planned re-routing of part of a client's flow.
type move struct {
	client tree.NodeID
	to     tree.NodeID
	amt    int64
}

// coordinate mutates sol in place and returns the number of rounds
// executed and replicas retired. sol must be the stitched piece
// placement for pieces over fi.
func coordinate(fi *core.FlatInstance, pieces []tree.Piece, sol *core.Solution, maxRounds int) (rounds, moved int) {
	if maxRounds <= 0 || len(pieces) <= 1 {
		return 0, 0
	}
	f := fi.Flat
	n := f.Len()
	c := &coord{
		fi:     fi,
		f:      f,
		pieces: pieces,
		sol:    sol,
		pieceOf: func() []int32 {
			po := make([]int32, n)
			for k := range pieces {
				for _, g := range pieces[k].Nodes {
					po[g] = int32(k)
				}
			}
			return po
		}(),
		loads: make([]int64, n),
		isRep: make([]bool, n),
		count: make([]int32, n+1),
	}
	c.rootPiece = c.pieceOf[f.Root()]
	for r := 1; r <= maxRounds; r++ {
		var retired int
		// Label the round so profiles split coordination time per
		// round (go tool pprof -tags).
		pprof.Do(context.Background(), pprof.Labels("decomp_round", strconv.Itoa(r)), func(context.Context) {
			retired = c.round()
		})
		rounds = r
		moved += retired
		if retired == 0 {
			break
		}
	}
	// Hand Normalize its input in its own order.
	c.sortBy(sol.Assignments, false)
	return rounds, moved
}

type coord struct {
	fi        *core.FlatInstance
	f         *tree.Tree
	pieces    []tree.Piece
	pieceOf   []int32
	rootPiece int32
	sol       *core.Solution
	loads     []int64
	isRep     []bool
	// upCache caches, per piece and per round, the ancestor replicas
	// above the piece root within the distance budget, nearest first.
	upCache map[int32][]upServer
	// count and tmp are the counting sort's buffers, allocated once
	// and reused every round. After a sort by server, count[s] ends
	// server s's group (see group).
	count []int32
	tmp   []core.Assignment
}

// sortBy sorts asg by (server, client) if byServer, else by (client,
// server), with two stable counting passes over node IDs: by the minor
// key into tmp, then by the major key back. Equal pairs keep their
// order.
func (c *coord) sortBy(asg []core.Assignment, byServer bool) {
	c.tmp = slices.Grow(c.tmp[:0], len(asg))[:len(asg)]
	c.pass(c.tmp, asg, !byServer)
	c.pass(asg, c.tmp, byServer)
}

// pass stably scatters src into dst by server or by client.
func (c *coord) pass(dst, src []core.Assignment, byServer bool) {
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

// group returns the range of server s's assignments after a sort by
// server: the scatter left count[s] at the end of s's group, which is
// where s+1's starts.
func (c *coord) group(s tree.NodeID) (lo, hi int) {
	if s > 0 {
		lo = int(c.count[s-1])
	}
	return lo, int(c.count[s])
}

// round runs one coordination round and returns the number of
// replicas retired.
func (c *coord) round() int {
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
	// Sort assignments by server so each replica's flow is one
	// contiguous group; groups index the pre-round prefix, which stays
	// valid because committed moves only append.
	c.sortBy(sol.Assignments, true)

	// Export candidates: replicas below a cut, cheapest (least loaded)
	// first, IDs breaking ties for determinism.
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
	// targeted pins replicas that received flow this round: exporting
	// them too would chase a moving group (their appended assignments
	// are outside the sorted prefix).
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
			// A replica serving nothing retires for free.
			c.isRep[s] = false
			retired++
			continue
		}
		ups := c.ups(c.pieceOf[s])
		if len(ups) == 0 {
			continue
		}
		// Plan: every unit s serves must find ancestor capacity within
		// its distance budget, or s stays.
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
					break // ups are nearest-first: the rest are farther
				}
				spare := c.fi.W - c.loads[u.node] - planned[u.node]
				if spare <= 0 {
					continue
				}
				take := remaining
				if take > spare {
					take = spare
				}
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
		// Commit: move the flow, retire s.
		for _, m := range plan {
			c.loads[m.to] += m.amt
			planned[m.to] -= m.amt
			targeted[m.to] = true
			sol.Assignments = append(sol.Assignments, core.Assignment{Client: m.client, Server: m.to, Amount: m.amt})
		}
		for i := lo; i < hi; i++ {
			sol.Assignments[i].Amount = 0 // tombstone, compacted below
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

// ups returns the ancestor replicas above piece k's root within the
// distance budget, nearest first (cached per round; retired entries
// are filtered by isRep at use).
func (c *coord) ups(k int32) []upServer {
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

// distToPieceRoot walks client up to piece k's root, accumulating
// edge lengths. Every server a client is assigned to lies on its
// path to the global root, so the piece root of any replica serving
// the client is one of the client's ancestors.
func (c *coord) distToPieceRoot(client tree.NodeID, k int32) int64 {
	f := c.f
	root := c.pieces[k].Boundary.Root
	d := int64(0)
	for cur := client; cur != root; cur = f.Parents[cur] {
		d = tree.SatAdd(d, f.EdgeLens[cur])
	}
	return d
}
