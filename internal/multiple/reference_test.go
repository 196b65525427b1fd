package multiple

import (
	"fmt"
	"sort"

	"replicatree/internal/core"
	"replicatree/internal/exact"
	"replicatree/internal/tree"
)

// This file keeps the package's first implementation of Algorithm 3
// and its variants as the test oracle for Session, which is what the
// package runs. It shares nothing with it but the triple and list
// types: it recurses over the child lists, merges sorted lists
// pairwise into fresh slices, splits them with take and partitions
// serve-inside descents in a map.

// referenceBin is the recursive Bin: Algorithm 3 on binary trees with
// ri ≤ W.
func referenceBin(in *core.Instance) (*core.Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if !in.Tree.IsBinary() {
		return nil, fmt.Errorf("multiple: Bin requires a binary tree (arity %d)", in.Tree.Arity())
	}
	if !in.FitsLocally() {
		return nil, fmt.Errorf("multiple: Bin requires ri ≤ W for all clients (max r=%d, W=%d)",
			in.Tree.MaxRequests(), in.W)
	}
	return run(in, false)
}

// referenceGreedy is the recursive Greedy: the eager variant on any
// arity.
func referenceGreedy(in *core.Instance) (*core.Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if !in.FitsLocally() {
		return nil, fmt.Errorf("multiple: Greedy requires ri ≤ W for all clients (max r=%d, W=%d)",
			in.Tree.MaxRequests(), in.W)
	}
	return run(in, false)
}

// referenceLazy is the recursive Lazy: the delayed-placement variant.
func referenceLazy(in *core.Instance) (*core.Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if !in.FitsLocally() {
		return nil, fmt.Errorf("multiple: Lazy requires ri ≤ W for all clients (max r=%d, W=%d)",
			in.Tree.MaxRequests(), in.W)
	}
	return run(in, true)
}

// referenceBest returns the better of referenceGreedy and
// referenceLazy, as Best does.
func referenceBest(in *core.Instance) (*core.Solution, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if !in.FitsLocally() {
		return nil, fmt.Errorf("multiple: Best requires ri ≤ W for all clients (max r=%d, W=%d)",
			in.Tree.MaxRequests(), in.W)
	}
	eager, err := referenceGreedy(in)
	if err != nil {
		return nil, err
	}
	lazy, err := referenceLazy(in)
	if err != nil {
		return nil, err
	}
	if lazy.NumReplicas() < eager.NumReplicas() {
		return lazy, nil
	}
	return eager, nil
}

// state carries the per-node req/proc lists of Algorithm 3.
type state struct {
	in   *core.Instance
	req  []list // req(j): requests passed up by j, sorted by non-increasing d
	proc []list // proc(j): requests served at j (only meaningful when inR[j])
	inR  []bool
	// lazy disables the eager capacity trigger (Lazy variant).
	lazy bool
}

func run(in *core.Instance, lazy bool) (*core.Solution, error) {
	n := in.Tree.Len()
	s := &state{
		in:   in,
		req:  make([]list, n),
		proc: make([]list, n),
		inR:  make([]bool, n),
		lazy: lazy,
	}
	s.visit(in.Tree.Root())
	if rem := s.req[in.Tree.Root()]; len(rem) != 0 {
		panic("multiple: requests left at the root")
	}
	sol := &core.Solution{}
	for j := 0; j < n; j++ {
		if !s.inR[j] {
			continue
		}
		id := tree.NodeID(j)
		sol.AddReplica(id)
		for _, tr := range s.proc[j] {
			sol.Assign(tr.client, id, tr.w)
		}
	}
	sol.Normalize()
	if err := core.Verify(in, core.Multiple, sol); err != nil {
		return nil, fmt.Errorf("multiple: algorithm produced infeasible solution: %w", err)
	}
	return sol, nil
}

// visit is the recursive procedure multiple-bin(j) of Algorithm 3
// (written for arbitrary arity; on binary trees it coincides with the
// paper's pseudocode).
func (s *state) visit(j tree.NodeID) {
	t := s.in.Tree
	dmax := s.in.DMax

	if t.IsClient(j) {
		r := t.Requests(j)
		if r == 0 {
			return
		}
		if t.Dist(j) > dmax {
			// The requests cannot even reach the parent: serve locally.
			s.place(j, list{{d: 0, w: r, client: j}})
		} else {
			s.req[j] = list{{d: 0, w: r, client: j}}
		}
		return
	}

	children := t.Children(j)
	parts := make([]list, 0, len(children))
	for _, c := range children {
		s.visit(c)
		parts = append(parts, s.req[c].addDist(t.Dist(c)))
	}
	temp := mergeAll(parts)
	wtot := temp.total()

	// blockedAbove reports whether a request at distance d cannot be
	// served at parent(j): past the root (δr = +∞, so nothing ever
	// leaves the root, even with dmax = ∞) or beyond the distance
	// bound.
	blockedAbove := func(d int64) bool {
		return j == t.Root() || tree.SatAdd(d, t.Dist(j)) > dmax
	}

	if len(temp) > 0 && (blockedAbove(temp[0].d) || (!s.lazy && wtot > s.in.W)) {
		// Place a server at j and fill it with the most
		// distance-constrained requests, up to capacity W.
		procList, rest := temp.take(s.in.W)
		s.place(j, procList)
		temp = rest
	}
	s.req[j] = temp

	if len(temp) > 0 && blockedAbove(temp[0].d) {
		// Some requests can be served neither at j (capacity) nor
		// above j (distance): re-arrange assignments and add an extra
		// server inside subtree(j).
		s.extraServer(j)
		s.req[j] = nil
	}
}

// place puts a replica at j serving exactly l.
func (s *state) place(j tree.NodeID, l list) {
	s.inR[j] = true
	s.proc[j] = l
}

// extraServer implements (and generalises) the extra-server(j)
// procedure of Algorithm 3. Node j is already a server; the requests
// that flowed through j — the units of ∪c req(c), which include j's
// current proc(j) and the blocked leftover req(j) — must all be served
// inside subtree(j). The procedure reassigns them:
//
//   - j keeps whole child lists, smallest first, up to capacity W
//     (the paper keeps req(lchild); keeping the smaller list first is
//     equivalent for the Theorem 6 counting argument and strictly
//     better on wider trees);
//   - a child that is not yet a server may have its list split: part
//     is kept at j, the remainder is served inside the child's
//     subtree (the Multiple policy allows splitting);
//   - a child that is already a saturated server absorbs its whole
//     list by the paper's swap: extraServer(child) re-covers
//     temp(child) = proc(child) ⊎ req(child) entirely inside the
//     child's subtree, adding exactly one server on binary trees.
//
// Every entry of req(c) is servable at c (it passed c's own distance
// check) and at j = parent(c), so no distance constraint can break.
func (s *state) extraServer(j tree.NodeID) {
	t := s.in.Tree
	children := append([]tree.NodeID{}, t.Children(j)...)
	sort.Slice(children, func(a, b int) bool {
		ta, tb := s.req[children[a]].total(), s.req[children[b]].total()
		if ta != tb {
			return ta < tb
		}
		return children[a] < children[b]
	})

	var keep list // what j will now serve
	budget := s.in.W
	var pending []tree.NodeID
	for _, c := range children {
		lc := s.req[c]
		w := lc.total()
		if w == 0 {
			continue
		}
		if w <= budget {
			keep = merge(keep, lc.addDist(t.Dist(c)))
			budget -= w
			s.req[c] = nil
			continue
		}
		pending = append(pending, c)
	}
	for _, c := range pending {
		lc := s.req[c]
		s.req[c] = nil
		if s.inR[c] {
			// Saturated child: swap its whole subtree assignment.
			// A saturated client passes nothing up, so lc would be
			// empty and c would not be pending.
			if t.IsClient(c) {
				panic("multiple: extra-server reached a saturated client")
			}
			s.extraServer(c)
			continue
		}
		if budget > 0 {
			// Split: the most distance-constrained part stays at j.
			head, rest := lc.take(budget)
			keep = merge(keep, head.addDist(t.Dist(c)))
			budget = 0
			lc = rest
		}
		s.serveInside(c, lc)
	}
	if len(keep) == 0 {
		// Every unit ended up inside the children's subtrees: j no
		// longer serves anything, so it should not count as a
		// replica. (Unreachable on binary trees with ri ≤ W: the
		// smaller child list always fits into an empty budget W.)
		s.inR[j] = false
		s.proc[j] = nil
		return
	}
	s.proc[j] = keep
	s.inR[j] = true
}

// serveInside serves all of l (expressed in c's frame: every unit
// flowed up through c and is servable at c) inside subtree(c). If c is
// free it becomes a server for up to W units; any remainder descends
// towards the units' origin clients, which are necessarily free — a
// client with a replica never passes requests up.
func (s *state) serveInside(c tree.NodeID, l list) {
	if len(l) == 0 {
		return
	}
	t := s.in.Tree
	if !s.inR[c] {
		head, rest := l.take(s.in.W)
		s.place(c, head)
		l = rest
		if len(l) == 0 {
			return
		}
	}
	if t.IsClient(c) {
		panic("multiple: request unit descended past its origin client")
	}
	// Partition the remainder by the child of c each unit came
	// through, and push each portion down (converting back to the
	// child's frame).
	parts := make(map[tree.NodeID]list)
	for _, u := range l {
		gc := s.childToward(c, u.client)
		u.d -= t.Dist(gc)
		parts[gc] = append(parts[gc], u)
	}
	for _, gc := range t.Children(c) {
		if p := parts[gc]; len(p) > 0 {
			s.serveInside(gc, p)
		}
	}
}

// childToward returns the child of c on the path from c down to
// client i.
func (s *state) childToward(c, i tree.NodeID) tree.NodeID {
	t := s.in.Tree
	for t.Parent(i) != c {
		i = t.Parent(i)
		if i == t.Root() {
			panic("multiple: childToward walked past the root")
		}
	}
	return i
}

// addDist returns a copy of the list with dist added to every d
// (saturating), preserving order (adding a constant preserves the
// non-increasing order).
func (l list) addDist(dist int64) list {
	out := make(list, len(l))
	for i := range l {
		out[i] = triple{d: tree.SatAdd(l[i].d, dist), w: l[i].w, client: l[i].client}
	}
	return out
}

// merge merges two lists sorted by non-increasing d into one.
func merge(a, b list) list {
	out := make(list, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i].d >= b[j].d {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// mergeAll merges k sorted lists (k-way, pairwise fold; k is the tree
// arity, small in practice).
func mergeAll(ls []list) list {
	switch len(ls) {
	case 0:
		return nil
	case 1:
		return ls[0]
	}
	out := ls[0]
	for _, l := range ls[1:] {
		out = merge(out, l)
	}
	return out
}

// take splits the list into a prefix of exactly at most w requests
// (splitting a triple if necessary — allowed under the Multiple
// policy) and the remainder.
func (l list) take(w int64) (head, rest list) {
	var got int64
	for i := range l {
		if got == w {
			return l[:i:i], l[i:]
		}
		if got+l[i].w <= w {
			got += l[i].w
			continue
		}
		// Split triple i.
		keep := w - got
		head = append(list{}, l[:i]...)
		head = append(head, triple{d: l[i].d, w: keep, client: l[i].client})
		rest = append(list{}, triple{d: l[i].d, w: l[i].w - keep, client: l[i].client})
		rest = append(rest, l[i+1:]...)
		return head, rest
	}
	return l, nil
}

// referencePlanDelta is the first PlanDelta, which counted churn with
// a replica set per solution and a map of old (client, server)
// amounts. It is the oracle for the linear merge; a nil solution is
// empty here too.
func referencePlanDelta(old, new *core.Solution) Churn {
	if old == nil {
		old = &core.Solution{}
	}
	if new == nil {
		new = &core.Solution{}
	}
	var ch Churn
	oldSet, newSet := old.ReplicaSet(), new.ReplicaSet()
	for _, r := range new.Replicas {
		if !oldSet[r] {
			ch.Added = append(ch.Added, r)
		}
	}
	for _, r := range old.Replicas {
		if !newSet[r] {
			ch.Removed = append(ch.Removed, r)
		}
	}
	type key struct{ c, s tree.NodeID }
	oldAmt := make(map[key]int64)
	for _, a := range old.Assignments {
		oldAmt[key{a.Client, a.Server}] += a.Amount
	}
	for _, a := range new.Assignments {
		k := key{a.Client, a.Server}
		kept := oldAmt[k]
		if kept >= a.Amount {
			oldAmt[k] = kept - a.Amount
			continue
		}
		ch.MovedRequests += a.Amount - kept
		oldAmt[k] = 0
	}
	return ch
}

// referenceReplanExcluding is the first ReplanExcluding: it rebuilds a
// fresh max-flow network per feasibility test and re-scans every client
// for every node to size the growth pool. Like ReplanExcluding, it
// takes a set of forbidden replica sites — failed servers that must
// host nothing in the new placement. Old
// replicas on excluded nodes are dropped before adaptation (their
// clients' demand is re-homed like any other stuck demand) and
// excluded nodes never enter the growth pool.
func referenceReplanExcluding(in *core.Instance, old *core.Solution, excluded []tree.NodeID) (*core.Solution, Churn, error) {
	if err := in.Validate(); err != nil {
		return nil, Churn{}, err
	}
	t := in.Tree
	down := make(map[tree.NodeID]bool, len(excluded))
	for _, x := range excluded {
		down[x] = true
	}
	// Sanitise the old replica set against the new tree (nodes must
	// exist and be up; stale assignments are discarded — only
	// locations count).
	oldSet := make(map[tree.NodeID]bool)
	var R []tree.NodeID
	for _, r := range old.Replicas {
		if t.Valid(r) && !oldSet[r] && !down[r] {
			oldSet[r] = true
			R = append(R, r)
		}
	}

	// Candidate pool for growth: all nodes that can serve someone.
	type cand struct {
		node  tree.NodeID
		reach int64
	}
	var pool []cand
	for j := 0; j < t.Len(); j++ {
		id := tree.NodeID(j)
		if down[id] {
			continue
		}
		var reach int64
		for _, c := range t.Clients() {
			if t.Requests(c) > 0 && in.CanServe(c, id) {
				reach += t.Requests(c)
			}
		}
		if reach > 0 && !oldSet[id] {
			pool = append(pool, cand{id, reach})
		}
	}
	sort.Slice(pool, func(a, b int) bool {
		if pool[a].reach != pool[b].reach {
			return pool[a].reach > pool[b].reach
		}
		return pool[a].node < pool[b].node
	})

	feasible := func(set []tree.NodeID) bool {
		return exact.MultipleFeasible(in, set)
	}
	grown := append([]tree.NodeID{}, R...)
	for i := 0; !feasible(grown); i++ {
		if i >= len(pool) {
			return nil, Churn{}, fmt.Errorf("multiple: replan cannot reach feasibility")
		}
		grown = append(grown, pool[i].node)
	}

	// Shrink: drop new additions first (reverse growth order), then
	// old replicas, while feasibility holds.
	for changed := true; changed; {
		changed = false
		for i := len(grown) - 1; i >= 0; i-- {
			trial := make([]tree.NodeID, 0, len(grown)-1)
			for k, r := range grown {
				if k != i {
					trial = append(trial, r)
				}
			}
			if feasible(trial) {
				grown = trial
				changed = true
				break
			}
		}
	}

	sol, err := exact.MultipleAssignment(in, grown)
	if err != nil {
		return nil, Churn{}, err
	}
	if err := core.Verify(in, core.Multiple, sol); err != nil {
		return nil, Churn{}, fmt.Errorf("multiple: replan produced infeasible solution: %w", err)
	}
	prev := old.Clone()
	prev.Normalize()
	return sol, PlanDelta(prev, sol), nil
}
