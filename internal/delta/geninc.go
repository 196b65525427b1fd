package delta

import (
	"fmt"
	"slices"

	"replicatree/internal/core"
	"replicatree/internal/tree"
)

// This file is the incremental twin of single.Session.Gen
// (Algorithm 1). The warm session already made Gen allocation-free;
// this version additionally makes it *sublinear in the tree* for small
// mutations by memoizing the bottom-up computation per node and
// recomputing only the dirty root paths.
//
// Why memoization is sound: Gen is a pure bottom-up function. The
// "outgoing pending" couple of a node — the client bundles forwarded
// to its parent plus their remaining distance budget — depends only on
// the node's subtree (requests and edge lengths strictly below it; the
// node's own parent edge is consumed by the parent's visit). The
// placements made while visiting a node depend only on the children's
// pendings, W and dmax. So after a mutation, exactly the internal
// nodes on the root paths of the touched nodes have changed inputs:
// everything else may reuse its memo verbatim.
//
// Client bundles are kept as persistent per-client chain links
// (chainNext, indexed by client ID) instead of a per-solve arena.
// Merging pendings splices chains in O(1) exactly like the session
// arena; the difference is that a memoized chain survives across
// solves. Chain segments are always iterated bounded by [head, tail]
// — never "until -1" — because an upward merge rewrites the link
// *after* a segment's tail. Interior links of a live memo segment are
// never rewritten: a merge only writes the link after the tail of a
// whole child chain, and a live memo segment is contiguous inside
// every chain it feeds, so no enclosing chain can end strictly inside
// it.
//
// The retract/re-place discipline relies on two invariants proved by
// the path-dirtying rule (all ancestors of a touched node are dirty):
//
//  1. Every client in a dirty node's input chains was previously
//     served by a record at a dirty node — so retracting the dirty
//     records unassigns exactly the clients that will flow through
//     the re-visit, and each of them is re-placed (or legitimately
//     dropped, if its rate went to zero).
//  2. A replica site is only ever placed by its parent's visit (or
//     the root by its own), so each site has at most one live record
//     and a site is never double-placed.
//
// The lower bound is maintained the same way: capped[] (the per-anchor
// demand of core.LowerBound) is adjusted per mutation using a stored
// anchor per client, and the cheap O(n) inside/need postorder pass is
// redone each resolve.

// genPending mirrors single.genPending with persistent chain links.
type genPending struct {
	head, tail  tree.NodeID
	total, dist int64
}

// placeRec is one placement made while visiting a processing node: a
// replica site plus the chain segment of clients assigned to it.
type placeRec struct {
	site       tree.NodeID
	head, tail tree.NodeID
}

// genInc is the incremental Algorithm 1 state for one session.
type genInc struct {
	f       tree.Tree // private copy of the session's tree, mutated in step
	w, dmax int64

	// chainNext[c] links client c to the next client of the same
	// pending chain. Links are only meaningful inside a [head, tail]
	// segment of a live memo or placement record.
	chainNext []tree.NodeID

	// Memoized outgoing pending per internal node.
	mHead, mTail  []tree.NodeID
	mTotal, mDist []int64

	// Live placements: recs[j] are the records created by j's visit;
	// serverOf/amtOf are the per-client assignment, loads the per-site
	// load, isReplica the replica set.
	recs      [][]placeRec
	serverOf  []tree.NodeID
	amtOf     []int64
	loads     []int64
	isReplica []bool

	// Lower-bound state: anchor[c] is the highest server eligible for
	// client c (the capped[] bucket of core.LowerBound); inside/need
	// are the postorder pass tables, recomputed every resolve.
	anchor       []tree.NodeID
	capped       []int64
	inside, need []int64

	// postPos is the inverse permutation of f.Post, used to order a
	// dirty path bottom-up.
	postPos []int32

	// Dirty tracking between resolves. mark/dirty use dirtyEpoch;
	// structural forces a fresh copy + full rebuild, fullDirty a full
	// re-visit without rebuild.
	dirtyEpoch uint32
	mark       []uint32
	dirty      []tree.NodeID
	structural bool
	fullDirty  bool
	primed     bool

	// Per-resolve scratch: epoch stamps retraction state, so the
	// churn pass can compare old and new assignments without maps.
	epoch      uint32
	retMark    []uint32
	retServer  []tree.NodeID
	retAmt     []int64
	siteMark   []uint32
	placed     []tree.NodeID
	removedCnd []tree.NodeID
	ptmp       []genPending
	stack      []tree.NodeID

	// Resolve outputs (owned by genInc, cloned by the session).
	sol     core.Solution
	lb      int
	added   []tree.NodeID
	removed []tree.NodeID
	moved   int64
}

func growTo[T any](s []T, n int, fill T) []T {
	if len(s) >= n {
		return s
	}
	if cap(s) < n {
		ns := make([]T, len(s), n)
		copy(ns, s)
		s = ns
	}
	for len(s) < n {
		s = append(s, fill)
	}
	return s
}

// markAncestors dirties j and every ancestor. Marks are upward-closed
// (every call walks to the root), so hitting a marked node means the
// rest of the path is marked too.
func (g *genInc) markAncestors(j tree.NodeID) {
	for n := j; n != tree.None; n = g.f.Parents[n] {
		if g.mark[n] == g.dirtyEpoch {
			return
		}
		g.mark[n] = g.dirtyEpoch
		g.dirty = append(g.dirty, n)
	}
}

// pendingRebuild reports whether incremental bookkeeping is pointless
// because the next resolve rebuilds from the tree anyway.
func (g *genInc) pendingRebuild() bool { return g.structural || !g.primed }

// anchorOf walks client c toward the root while the distance budget
// lasts — exactly core.LowerBound's anchor walk.
func (g *genInc) anchorOf(c tree.NodeID) tree.NodeID {
	var d int64
	h := c
	for h != g.f.Root() {
		nd := tree.SatAdd(d, g.f.Dist(h))
		if nd > g.dmax {
			break
		}
		d = nd
		h = g.f.Parents[h]
	}
	return h
}

// setRequest applies a request-rate change to the private tree copy
// and the bound state, dirtying the client's root path.
func (g *genInc) setRequest(c tree.NodeID, r int64) {
	if g.pendingRebuild() {
		return
	}
	old := g.f.Reqs[c]
	g.f.Reqs[c] = r
	g.capped[g.anchor[c]] += r - old
	g.markAncestors(g.f.Parents[c])
}

// setEdgeLen applies an edge-length change: clients below j may anchor
// differently, and j's parent re-decides whether j's pending can cross
// the edge.
func (g *genInc) setEdgeLen(j tree.NodeID, d int64) {
	if g.pendingRebuild() {
		return
	}
	g.f.EdgeLens[j] = d
	st := g.stack[:0]
	st = append(st, j)
	for len(st) > 0 {
		n := st[len(st)-1]
		st = st[:len(st)-1]
		if g.f.IsClient(n) {
			g.capped[g.anchor[n]] -= g.f.Reqs[n]
			g.anchor[n] = g.anchorOf(n)
			g.capped[g.anchor[n]] += g.f.Reqs[n]
			continue
		}
		for _, c := range g.f.Children(n) {
			st = append(st, c)
		}
	}
	g.stack = st
	g.markAncestors(g.f.Parents[j])
}

// setCapacity re-decides every placement (W is global) but keeps the
// structure and bound anchors.
func (g *genInc) setCapacity(w int64) {
	g.w = w
	g.fullDirty = true
}

// invalidate forces a structural rebuild at the next resolve (tree
// shape changed, or bookkeeping is stale for any other reason).
func (g *genInc) invalidate() { g.structural = true }

// resolve re-solves against t, which must reflect every mutation
// applied so far. On success sol/lb and the churn outputs
// (added/removed/moved) describe the new placement.
func (g *genInc) resolve(t *tree.Tree) error {
	if g.structural || !g.primed {
		g.rebuild(t)
	}
	n := g.f.Len()
	internals := n - g.f.NumClients()
	if !g.fullDirty && len(g.dirty)*2 > internals {
		g.fullDirty = true
	}

	// Same feasibility gate and error text as the cold path, checked
	// before any state is touched so a failed resolve leaves the
	// session consistent (the dirty set survives for the next try).
	for _, r := range g.f.Reqs {
		if r > g.w {
			return fmt.Errorf("single: some client exceeds W=%d; Single has no solution", g.w)
		}
	}

	g.epoch++
	g.placed = g.placed[:0]
	g.removedCnd = g.removedCnd[:0]
	g.added = g.added[:0]
	g.removed = g.removed[:0]
	g.moved = 0

	if g.fullDirty {
		for j := 0; j < n; j++ {
			g.retractNode(tree.NodeID(j))
		}
		for _, j := range g.f.Post {
			if !g.f.IsClient(j) {
				g.visit(j)
			}
		}
	} else {
		for _, j := range g.dirty {
			g.retractNode(j)
		}
		// Post[i] lists children before parents; dirty paths must be
		// re-visited bottom-up, so order the dirty set by postorder
		// position. The dirty set is a union of root paths, so
		// comparing depth would not be enough for siblings.
		slices.SortFunc(g.dirty, func(a, b tree.NodeID) int {
			return int(g.postPosOf(a)) - int(g.postPosOf(b))
		})
		for _, j := range g.dirty {
			g.visit(j)
		}
	}
	if g.mTotal[g.f.Root()] != 0 {
		return fmt.Errorf("delta: incremental solve left %d unassigned requests at the root", g.mTotal[g.f.Root()])
	}

	if err := g.check(); err != nil {
		// A bookkeeping invariant broke. Heal by rebuilding from
		// scratch next time, but surface the inconsistency: the
		// metamorphic suite pins that this never fires.
		g.structural = true
		return err
	}
	g.buildSolution()
	g.finishChurn()
	g.lb = g.lowerBound()

	g.dirty = g.dirty[:0]
	g.dirtyEpoch++
	g.fullDirty = false
	g.primed = true
	return nil
}

func (g *genInc) postPosOf(j tree.NodeID) int32 { return g.postPos[j] }

// rebuild copies t and resets every per-node table, keeping the
// old assignment state just long enough for the churn pass: the
// retract-all of the following fullDirty visit snapshots it.
func (g *genInc) rebuild(t *tree.Tree) {
	tree.FlattenInto(&g.f, t)
	n := g.f.Len()
	g.chainNext = growTo(g.chainNext, n, tree.None)
	g.mHead = growTo(g.mHead, n, tree.None)
	g.mTail = growTo(g.mTail, n, tree.None)
	g.mTotal = growTo(g.mTotal, n, 0)
	g.mDist = growTo(g.mDist, n, 0)
	g.recs = growTo(g.recs, n, nil)
	g.serverOf = growTo(g.serverOf, n, tree.None)
	g.amtOf = growTo(g.amtOf, n, 0)
	g.loads = growTo(g.loads, n, 0)
	g.isReplica = growTo(g.isReplica, n, false)
	g.anchor = growTo(g.anchor, n, tree.None)
	g.capped = growTo(g.capped, n, 0)
	g.inside = growTo(g.inside, n, 0)
	g.need = growTo(g.need, n, 0)
	g.mark = growTo(g.mark, n, 0)
	g.retMark = growTo(g.retMark, n, 0)
	g.retServer = growTo(g.retServer, n, tree.None)
	g.retAmt = growTo(g.retAmt, n, 0)
	g.siteMark = growTo(g.siteMark, n, 0)
	g.postPos = growTo(g.postPos, n, 0)
	for i, j := range g.f.Post {
		g.postPos[j] = int32(i)
	}
	// Rebuild the bound state from scratch: anchors depend on edges
	// only, capped on anchors and rates.
	clear(g.capped[:n])
	for j := 0; j < n; j++ {
		id := tree.NodeID(j)
		if !g.f.IsClient(id) {
			continue
		}
		g.anchor[id] = g.anchorOf(id)
		g.capped[g.anchor[id]] += g.f.Reqs[id]
	}
	g.structural = false
	g.fullDirty = true
}

// retractNode drops every placement record of processing node j,
// snapshotting the old assignments for the churn pass.
func (g *genInc) retractNode(j tree.NodeID) {
	rs := g.recs[j]
	if len(rs) == 0 {
		return
	}
	for _, rec := range rs {
		if g.isReplica[rec.site] {
			g.isReplica[rec.site] = false
			g.siteMark[rec.site] = g.epoch
			g.removedCnd = append(g.removedCnd, rec.site)
		}
		for c := rec.head; ; c = g.chainNext[c] {
			g.retMark[c] = g.epoch
			g.retServer[c] = g.serverOf[c]
			g.retAmt[c] = g.amtOf[c]
			g.loads[rec.site] -= g.amtOf[c]
			g.serverOf[c] = tree.None
			g.amtOf[c] = 0
			if c == rec.tail {
				break
			}
		}
	}
	g.recs[j] = rs[:0]
}

// visit re-runs Algorithm 1's decision at internal node j, mirroring
// single.Session.Gen step for step on memoized child pendings.
func (g *genInc) visit(j tree.NodeID) {
	f := &g.f
	pt := g.ptmp[:0]
	for _, c := range f.Children(j) {
		var p genPending
		if f.IsClient(c) {
			p = genPending{head: tree.None, tail: tree.None, total: f.Reqs[c], dist: g.dmax}
			if p.total > 0 {
				p.head, p.tail = c, c
			}
		} else {
			p = genPending{head: g.mHead[c], tail: g.mTail[c], total: g.mTotal[c], dist: g.mDist[c]}
		}
		pt = append(pt, p)
	}
	var sum int64
	ci := 0
	for _, c := range f.Children(j) {
		p := &pt[ci]
		// Step 1: requests that cannot travel the edge (c → j) are
		// served at c itself.
		if f.Dist(c) > p.dist && p.total > 0 {
			g.place(j, c, p)
		} else {
			p.dist -= f.Dist(c)
		}
		sum += p.total
		ci++
	}
	out := genPending{head: tree.None, tail: tree.None, dist: g.dmax}
	switch {
	case sum > g.w:
		// Step 2: too much to carry; a server on every child that
		// still has pending requests.
		ci = 0
		for _, c := range f.Children(j) {
			if pt[ci].total > 0 {
				g.place(j, c, &pt[ci])
			}
			ci++
		}
	case j == f.Root():
		// Step 3a: the root absorbs whatever remains. Splice all child
		// chains into one record at the root — assignment-identical to
		// the session's per-chain absorb.
		if sum > 0 {
			m := genPending{head: tree.None, tail: tree.None, dist: g.dmax}
			for i := range pt {
				p := &pt[i]
				if p.total == 0 {
					continue
				}
				if m.head == tree.None {
					m.head, m.tail = p.head, p.tail
				} else {
					g.chainNext[m.tail] = p.head
					m.tail = p.tail
				}
				m.total += p.total
			}
			g.place(j, j, &m)
		}
	default:
		// Step 3b: forward the merged pending set upwards; the
		// distance budget is the minimum over contributing children.
		for i := range pt {
			p := &pt[i]
			if p.total == 0 {
				continue
			}
			if out.head == tree.None {
				out.head, out.tail = p.head, p.tail
			} else {
				g.chainNext[out.tail] = p.head
				out.tail = p.tail
			}
			out.total += p.total
			if p.dist < out.dist {
				out.dist = p.dist
			}
		}
	}
	g.mHead[j], g.mTail[j], g.mTotal[j], g.mDist[j] = out.head, out.tail, out.total, out.dist
	g.ptmp = pt[:0]
}

// place records a replica at site serving all of p's chain, crediting
// the churn trackers, and empties p.
func (g *genInc) place(procNode, site tree.NodeID, p *genPending) {
	g.isReplica[site] = true
	if g.siteMark[site] != g.epoch {
		g.added = append(g.added, site)
	}
	g.recs[procNode] = append(g.recs[procNode], placeRec{site: site, head: p.head, tail: p.tail})
	for c := p.head; ; c = g.chainNext[c] {
		r := g.f.Reqs[c]
		g.serverOf[c] = site
		g.amtOf[c] = r
		g.loads[site] += r
		g.placed = append(g.placed, c)
		if c == p.tail {
			break
		}
	}
	p.head, p.tail = tree.None, tree.None
	p.total = 0
	p.dist = g.dmax
}

// check guards the incremental bookkeeping with the cheap O(n) subset
// of core.Verify: full coverage and capacity. Path/distance validity
// is an algorithm invariant pinned by the metamorphic suite against
// the (fully verified) cold path.
func (g *genInc) check() error {
	n := g.f.Len()
	for j := 0; j < n; j++ {
		id := tree.NodeID(j)
		if g.f.IsClient(id) {
			switch {
			case g.f.Reqs[j] > 0 && (g.serverOf[j] == tree.None || g.amtOf[j] != g.f.Reqs[j]):
				return fmt.Errorf("delta: incremental solve lost coverage of client %d (%d of %d served)",
					id, g.amtOf[j], g.f.Reqs[j])
			case g.f.Reqs[j] == 0 && g.serverOf[j] != tree.None:
				return fmt.Errorf("delta: incremental solve kept a stale assignment of idle client %d", id)
			}
		}
		if g.loads[j] > g.w {
			return fmt.Errorf("delta: incremental solve overloaded server %d (%d > W=%d)", id, g.loads[j], g.w)
		}
	}
	return nil
}

// buildSolution rebuilds the normalized solution from the per-client
// state: ascending ID scans yield sorted replicas and client-sorted
// assignments, exactly what Normalize produces for a Single placement.
func (g *genInc) buildSolution() {
	n := g.f.Len()
	g.sol.Replicas = g.sol.Replicas[:0]
	g.sol.Assignments = g.sol.Assignments[:0]
	for j := 0; j < n; j++ {
		if g.isReplica[j] {
			g.sol.Replicas = append(g.sol.Replicas, tree.NodeID(j))
		}
	}
	for j := 0; j < n; j++ {
		if g.serverOf[j] != tree.None {
			g.sol.Assignments = append(g.sol.Assignments, core.Assignment{
				Client: tree.NodeID(j), Server: g.serverOf[j], Amount: g.amtOf[j],
			})
		}
	}
}

// finishChurn closes the churn pass: moved volume per placed client
// against its retraction snapshot (multiple.PlanDelta semantics), and
// retracted sites that were not re-placed become removals.
func (g *genInc) finishChurn() {
	for _, c := range g.placed {
		newAmt := g.amtOf[c]
		var kept int64
		if g.retMark[c] == g.epoch && g.retServer[c] == g.serverOf[c] {
			kept = min(g.retAmt[c], newAmt)
		}
		if newAmt > kept {
			g.moved += newAmt - kept
		}
	}
	for _, s := range g.removedCnd {
		if !g.isReplica[s] {
			g.removed = append(g.removed, s)
		}
	}
	slices.Sort(g.added)
	slices.Sort(g.removed)
}

// lowerBound runs the O(n) inside/need postorder pass of
// core.LowerBound over the incrementally maintained capped[] table.
func (g *genInc) lowerBound() int {
	f := &g.f
	for _, j := range f.Post {
		sum := g.capped[j]
		var childNeed int64
		for _, c := range f.Children(j) {
			sum += g.inside[c]
			childNeed += g.need[c]
		}
		g.inside[j] = sum
		nn := core.CeilDiv(sum, g.w)
		if childNeed > nn {
			nn = childNeed
		}
		g.need[j] = nn
	}
	return int(g.need[f.Root()])
}
