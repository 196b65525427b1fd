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
//
// The bookkeeping touches boundary flow only. Loads and replica flags
// are computed once, and every commit keeps them current. The
// assignment list is put in (client, server) order once and kept in
// it: a round's compaction preserves the order, and the round's moves
// are sorted by (client, server) and merged in after the kept entries,
// so Normalize receives the list sorted. Each round groups the list by
// replica with one stable counting pass keyed by the replica's index
// in sol.Replicas, so every group lists its clients in ascending order.
//
// The answers are those of the first coordinator, which counting-sorted
// the whole list by (server, client) every round (referenceCoordinate
// in the tests). In round 1 no (client, server) pair repeats, so every
// group lists its entries in that coordinator's order. In later rounds
// equal pairs (a kept entry and moves) can appear; they sit next to
// each other in their group, and filling their amounts one after
// another gives the same per-receiver totals as filling their sum.
// Normalize then merges them.

// upServer is an ancestor replica above a piece root, dist edges up.
type upServer struct {
	node tree.NodeID
	dist int64 // distance from the piece root to node
}

// coordinate mutates sol in place and returns the number of rounds
// executed and replicas retired. sol must be the stitched piece
// placement for pieces over fi.
func coordinate(fi *core.FlatInstance, pieces []tree.Piece, sol *core.Solution, maxRounds int) (rounds, moved int) {
	if maxRounds <= 0 || len(pieces) <= 1 {
		return 0, 0
	}
	f := fi.Flat
	n, reps := f.Len(), len(sol.Replicas)
	c := &coord{
		fi:       fi,
		f:        f,
		pieces:   pieces,
		sol:      sol,
		pieceOf:  make([]int32, n),
		loads:    make([]int64, n),
		isRep:    make([]bool, n),
		repIdx:   make([]int32, n),
		planned:  make([]int64, reps),
		targeted: make([]bool, reps),
		ends:     make([]int32, reps+1),
	}
	for k := range pieces {
		for _, g := range pieces[k].Nodes {
			c.pieceOf[g] = int32(k)
		}
	}
	c.rootPiece = c.pieceOf[f.Root()]
	for _, r := range sol.Replicas {
		c.isRep[r] = true
	}
	for _, a := range sol.Assignments {
		c.loads[a.Server] += a.Amount
	}
	sortByClient(sol.Assignments, n)
	c.index()
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
	return rounds, moved
}

type coord struct {
	fi        *core.FlatInstance
	f         *tree.Tree
	pieces    []tree.Piece
	pieceOf   []int32
	rootPiece int32
	sol       *core.Solution
	// loads and isRep are per node, repIdx[r] is replica r's index in
	// sol.Replicas.
	loads  []int64
	isRep  []bool
	repIdx []int32
	// planned and targeted are per replica index: the flow the plan in
	// hand sends to each replica (zero between candidates), and whether
	// a replica received flow this round.
	planned  []int64
	targeted []bool
	// upCache caches, per piece and per round, the ancestor replicas
	// above the piece root within the distance budget, nearest first.
	upCache map[int32][]upServer
	// perm lists the positions of the assignments to each replica,
	// grouped by replica index; ends[k] ends replica k's group.
	perm  []int32
	ends  []int32
	moves []core.Assignment
}

// sortByClient sorts asg by (client, server) with two stable counting
// passes over the n node IDs, by server into a copy and by client back.
// Equal pairs keep their order.
func sortByClient(asg []core.Assignment, n int) {
	tmp := make([]core.Assignment, len(asg))
	count := make([]int32, n+1)
	for _, a := range asg {
		count[a.Server+1]++
	}
	for k := 1; k <= n; k++ {
		count[k] += count[k-1]
	}
	for _, a := range asg {
		tmp[count[a.Server]] = a
		count[a.Server]++
	}
	clear(count)
	for _, a := range tmp {
		count[a.Client+1]++
	}
	for k := 1; k <= n; k++ {
		count[k] += count[k-1]
	}
	for _, a := range tmp {
		asg[count[a.Client]] = a
		count[a.Client]++
	}
}

// compareAssignments orders assignments by (client, server).
func compareAssignments(a, b core.Assignment) int {
	if a.Client != b.Client {
		return cmp.Compare(a.Client, b.Client)
	}
	return cmp.Compare(a.Server, b.Server)
}

// index numbers the replicas in sol.Replicas order and cuts the
// per-replica buffers to them: replicas only ever retire.
func (c *coord) index() {
	reps := c.sol.Replicas
	for i, r := range reps {
		c.repIdx[r] = int32(i)
	}
	c.planned = c.planned[:len(reps)]
	c.targeted = c.targeted[:len(reps)]
	c.ends = c.ends[:len(reps)+1]
}

// group fills perm with one stable counting pass over the list: each
// replica's assignments form one group, in list order, so in ascending
// client order. Assignments to a node that is no replica are left out.
func (c *coord) group() {
	asg := c.sol.Assignments
	ends := c.ends
	clear(ends)
	m := 0
	for _, a := range asg {
		if c.isRep[a.Server] {
			ends[c.repIdx[a.Server]+1]++
			m++
		}
	}
	for k := 1; k < len(ends); k++ {
		ends[k] += ends[k-1]
	}
	c.perm = slices.Grow(c.perm[:0], m)[:m]
	for i, a := range asg {
		if c.isRep[a.Server] {
			k := c.repIdx[a.Server]
			c.perm[ends[k]] = int32(i)
			ends[k]++
		}
	}
}

// span returns the range of perm that holds replica k's group: the
// scatter left ends[k] at the end of k's group, which is where k+1's
// starts.
func (c *coord) span(k int32) (lo, hi int) {
	if k > 0 {
		lo = int(c.ends[k-1])
	}
	return lo, int(c.ends[k])
}

// round runs one coordination round and returns the number of
// replicas retired.
func (c *coord) round() int {
	sol := c.sol
	c.group()
	clear(c.targeted)

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
	// With no distance bound a client's path to its piece root cannot
	// change a comparison: SatAdd saturates at NoDistance, which no
	// distance exceeds.
	walk := !c.fi.NoD()
	var plan []core.Assignment
	retired := 0
	for _, s := range cands {
		ks := c.repIdx[s]
		// A replica that received flow this round is pinned: its new
		// assignments are not in its group.
		if c.targeted[ks] || !c.isRep[s] {
			continue
		}
		lo, hi := c.span(ks)
		if lo == hi {
			// A replica serving nothing retires for free.
			c.isRep[s] = false
			retired++
			continue
		}
		ps := c.pieceOf[s]
		ups := c.ups(ps)
		if len(ups) == 0 {
			continue
		}
		// Plan: every unit s serves must find ancestor capacity within
		// its distance budget, or s stays.
		plan = plan[:0]
		feasible := true
		for _, i := range c.perm[lo:hi] {
			a := sol.Assignments[i]
			var d0 int64
			if walk {
				d0 = c.distToPieceRoot(a.Client, ps)
			}
			remaining := a.Amount
			for _, u := range ups {
				if !c.isRep[u.node] {
					continue
				}
				if tree.SatAdd(d0, u.dist) > c.fi.DMax {
					break // ups are nearest-first: the rest are farther
				}
				ku := c.repIdx[u.node]
				spare := c.fi.W - c.loads[u.node] - c.planned[ku]
				if spare <= 0 {
					continue
				}
				take := min(remaining, spare)
				plan = append(plan, core.Assignment{Client: a.Client, Server: u.node, Amount: take})
				c.planned[ku] += take
				remaining -= take
				if remaining == 0 {
					break
				}
			}
			if remaining > 0 {
				feasible = false
				break
			}
		}
		if !feasible {
			for _, m := range plan {
				c.planned[c.repIdx[m.Server]] -= m.Amount
			}
			continue
		}
		// Commit: move the flow, retire s.
		for _, m := range plan {
			ku := c.repIdx[m.Server]
			c.loads[m.Server] += m.Amount
			c.planned[ku] -= m.Amount
			c.targeted[ku] = true
		}
		c.moves = append(c.moves, plan...)
		for _, i := range c.perm[lo:hi] {
			sol.Assignments[i].Amount = 0 // tombstone, compacted below
		}
		c.isRep[s] = false
		c.loads[s] = 0
		retired++
	}
	if retired > 0 {
		c.merge()
		reps := sol.Replicas[:0]
		for _, r := range sol.Replicas {
			if c.isRep[r] {
				reps = append(reps, r)
			}
		}
		sol.Replicas = reps
		c.index()
	}
	return retired
}

// merge drops the tombstoned assignments and merges the round's moves,
// sorted by (client, server), in after the kept ones. The list stays
// in (client, server) order, and an equal pair keeps a kept entry
// first and moves in commit order.
func (c *coord) merge() {
	sol := c.sol
	kept := sol.Assignments[:0]
	for _, a := range sol.Assignments {
		if a.Amount > 0 {
			kept = append(kept, a)
		}
	}
	moves := c.moves
	slices.SortStableFunc(moves, compareAssignments)
	out := slices.Grow(kept, len(moves))[:len(kept)+len(moves)]
	// Merge from the back, so that out can share kept's array.
	i, w := len(kept)-1, len(out)-1
	for j := len(moves) - 1; j >= 0; w-- {
		if i >= 0 && compareAssignments(out[i], moves[j]) > 0 {
			out[w] = out[i]
			i--
		} else {
			out[w] = moves[j]
			j--
		}
	}
	sol.Assignments = out
	c.moves = moves[:0]
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
