package multiple

import (
	"fmt"
	"slices"

	"replicatree/internal/core"
	"replicatree/internal/tree"
)

// Session is the package's implementation of Algorithm 3 and its
// variants. Bind it to a validated instance with Reset, then call
// Bin/Greedy/Lazy/Best repeatedly: once the buffers have grown, warm
// solves perform zero heap allocations. The recursive oracle in
// reference_test.go, which merges, splits and partitions lists into
// fresh slices as the paper's pseudocode reads, pins its answers.
//
// Layout: the per-node req/proc lists of Algorithm 3 are per-node
// slices reused across solves (each node owns its backing array, so
// the extra-server machinery can re-read a child's list after the
// parent consumed a copy). Transient lists — the merge buffer, the
// extra-server child/keep segments, the serve-inside partitions — live
// in grow-only arenas addressed by [base, end) index pairs so that
// the levels of the extra-server recursion stack without aliasing.
// The main pass does not recurse: it visits the stored postorder.
//
// Equivalences relied on (vs. the oracle):
//   - the oracle's temp list, a left-biased fold of stable merges of
//     the children's lists, equals a stable sort by non-increasing d
//     of those lists concatenated in child order, and so does any
//     left-biased pairwise merge of adjacent lists (mergeRuns);
//   - proc/keep lists are only ever read as multisets (run feeds them
//     through Solution.Normalize), so their internal order is free —
//     only req lists, which are later split by prefix, must keep the
//     oracle's exact order.
//
// The returned *core.Solution is owned by the session and valid until
// the next solve. The session does not verify its answers: the solver
// seam verifies every engine's answer once (multiple-bin, -greedy,
// -lazy and -best run these methods). A Session is not safe for
// concurrent use.
type Session struct {
	in   *core.Instance
	solA core.Solution
	solB core.Solution // second buffer so Best can hold both variants
	lazy bool

	req  []list // req(j), session-owned per-node backing
	proc []list // proc(j)
	inR  []bool
	vtmp list          // visit merge buffer (one level live at a time)
	vmrg list          // vtmp's twin: merge rounds alternate between them
	runs []int         // run bounds in vtmp
	kids []tree.NodeID // extra-server sorted children + pending arena
	pend []tree.NodeID
	keep list // extra-server keep arena
	part list // serve-inside rest/partition arena
}

// Reset binds the session to an instance. The caller must have
// validated the instance; Reset itself does not allocate.
func (s *Session) Reset(in *core.Instance) {
	s.in = in
}

// Bin runs Algorithm 3 (multiple-bin), the paper's polynomial-time
// algorithm for Multiple-Bin. It refuses a tree that is not binary or
// a client with ri > W: its regime is Theorem 6's, and with ri > W the
// problem is NP-hard (Theorem 5). Time complexity: O(|T|²).
//
// Reproduction note: Theorem 6 claims optimality. Without distance
// constraints our measurements confirm it on every random instance
// tried; with distance constraints we found rare off-by-one
// counterexamples (see TestTheorem6Counterexample and experiment E7)
// caused by the eager "wtot > W" placement rule committing a full
// server below a later distance-blocked, under-filled one. Use Best
// for the empirically strongest polynomial placement.
func (s *Session) Bin() (*core.Solution, error) {
	if !s.in.Tree.IsBinary() {
		return nil, fmt.Errorf("multiple: Bin requires a binary tree (arity %d)", s.in.Tree.Arity())
	}
	if s.in.Tree.MaxRequests() > s.in.W {
		return nil, fmt.Errorf("multiple: Bin requires ri ≤ W for all clients (max r=%d, W=%d)",
			s.in.Tree.MaxRequests(), s.in.W)
	}
	return s.run(false, &s.solA)
}

// Greedy runs the generalisation of Algorithm 3 to arbitrary arity
// (ri ≤ W). On binary trees it is exactly Algorithm 3; on wider trees
// it is a feasible heuristic. Empirically (experiments E7/E8) it
// matches the exact optimum on ≈99% of random instances, with a worst
// observed gap of one replica; the NoD general-arity regime is the one
// the paper cites as polynomially solvable [3].
func (s *Session) Greedy() (*core.Solution, error) {
	if s.in.Tree.MaxRequests() > s.in.W {
		return nil, fmt.Errorf("multiple: Greedy requires ri ≤ W for all clients (max r=%d, W=%d)",
			s.in.Tree.MaxRequests(), s.in.W)
	}
	return s.run(false, &s.solA)
}

// Lazy runs the delayed-placement variant of Algorithm 3 (ri ≤ W): a
// server is placed only when the distance constraint forces one (or at
// the root), never by the paper's eager "more than W requests in temp"
// trigger; request lists flowing upwards may therefore exceed W and
// the generalised extra-server machinery redistributes them.
//
// Motivation: the repository's reproduction found a 9-node
// counterexample (see TestTheorem6Counterexample) where the faithful
// Algorithm 3 is off by one because the eager trigger commits W
// requests below a node that a distance-blocked, under-filled server
// is later placed on. Delaying placement resolves that class of
// instances; experiment E7 measures both variants against the exact
// optimum.
func (s *Session) Lazy() (*core.Solution, error) {
	if s.in.Tree.MaxRequests() > s.in.W {
		return nil, fmt.Errorf("multiple: Lazy requires ri ≤ W for all clients (max r=%d, W=%d)",
			s.in.Tree.MaxRequests(), s.in.W)
	}
	return s.run(true, &s.solA)
}

// Best runs the eager and lazy variants and returns the one with
// fewer replicas (the eager one on a tie). Each variant covers the
// other's rare failure class (see experiment E7): across thousands of
// random instances the combination is optimal on ≈99.9%.
func (s *Session) Best() (*core.Solution, error) {
	if s.in.Tree.MaxRequests() > s.in.W {
		return nil, fmt.Errorf("multiple: Best requires ri ≤ W for all clients (max r=%d, W=%d)",
			s.in.Tree.MaxRequests(), s.in.W)
	}
	eager, err := s.run(false, &s.solA)
	if err != nil {
		return nil, err
	}
	lazy, err := s.run(true, &s.solB)
	if err != nil {
		return nil, err
	}
	if lazy.NumReplicas() < eager.NumReplicas() {
		return lazy, nil
	}
	return eager, nil
}

func (s *Session) run(lazy bool, sol *core.Solution) (*core.Solution, error) {
	f := s.in.Tree
	n := f.Len()
	if cap(s.req) < n {
		s.req = make([]list, n)
		s.proc = make([]list, n)
		s.inR = make([]bool, n)
	}
	s.req, s.proc, s.inR = s.req[:n], s.proc[:n], s.inR[:n]
	for j := 0; j < n; j++ {
		s.req[j] = s.req[j][:0]
		s.proc[j] = s.proc[j][:0]
	}
	clear(s.inR)
	s.kids, s.pend, s.keep, s.part = s.kids[:0], s.pend[:0], s.keep[:0], s.part[:0]
	s.lazy = lazy

	for _, j := range f.Post {
		s.visit(j)
	}
	if len(s.req[f.Root()]) != 0 {
		panic("multiple: requests left at the root")
	}
	sol.Replicas = sol.Replicas[:0]
	sol.Assignments = sol.Assignments[:0]
	for j := 0; j < n; j++ {
		if !s.inR[j] {
			continue
		}
		// Each node is visited once, so no replica repeats: append
		// without AddReplica's scan.
		id := tree.NodeID(j)
		sol.Replicas = append(sol.Replicas, id)
		for _, tr := range s.proc[j] {
			sol.Assign(tr.client, id, tr.w)
		}
	}
	sol.Normalize()
	return sol, nil
}

// visit is the procedure multiple-bin(j) of Algorithm 3, written for
// arbitrary arity, minus the recursion into the children: run visits
// the nodes in the stored postorder, so every child's lists are final
// when j is visited. The merge buffer vtmp is shared by all nodes: a
// visit's use ends (content copied into req/proc) before it returns.
func (s *Session) visit(j tree.NodeID) {
	f := s.in.Tree
	dmax := s.in.DMax

	if f.IsClient(j) {
		r := f.Reqs[j]
		if r == 0 {
			return
		}
		if f.Dist(j) > dmax {
			s.inR[j] = true
			s.proc[j] = append(s.proc[j], triple{d: 0, w: r, client: j})
		} else {
			s.req[j] = append(s.req[j], triple{d: 0, w: r, client: j})
		}
		return
	}

	// temp: the children's lists, shifted by their edge lengths and
	// concatenated in child order, each still sorted by non-increasing
	// d (SatAdd is monotone), then merged into one such list.
	tmp, runs := s.vtmp[:0], append(s.runs[:0], 0)
	for _, c := range f.Children(j) {
		if len(s.req[c]) == 0 {
			continue
		}
		dc := f.Dist(c)
		for _, u := range s.req[c] {
			tmp = append(tmp, triple{d: tree.SatAdd(u.d, dc), w: u.w, client: u.client})
		}
		runs = append(runs, len(tmp))
	}
	s.vtmp, s.runs = tmp, runs
	tmp = s.mergeRuns()
	var wtot int64
	for i := range tmp {
		wtot += tmp[i].w
	}

	root := f.Root()
	blockedAbove := func(d int64) bool {
		return j == root || tree.SatAdd(d, f.Dist(j)) > dmax
	}

	if len(tmp) > 0 && (blockedAbove(tmp[0].d) || (!s.lazy && wtot > s.in.W)) {
		i, splitW := splitPoint(tmp, s.in.W)
		s.inR[j] = true
		s.proc[j] = append(s.proc[j], tmp[:i]...)
		if splitW > 0 {
			s.proc[j] = append(s.proc[j], triple{d: tmp[i].d, w: splitW, client: tmp[i].client})
			s.req[j] = append(s.req[j], triple{d: tmp[i].d, w: tmp[i].w - splitW, client: tmp[i].client})
			i++
		}
		s.req[j] = append(s.req[j], tmp[i:]...)
	} else {
		s.req[j] = append(s.req[j], tmp...)
	}

	if l := s.req[j]; len(l) > 0 && blockedAbove(l[0].d) {
		s.extraServer(j)
		s.req[j] = s.req[j][:0]
	}
}

// mergeRuns sorts vtmp by non-increasing d, stably, given that it is
// the concatenation of such sorted runs bounded by runs: each round
// merges adjacent runs pairwise, the left one first on ties, from one
// buffer into the other, until one run is left. It returns the merged
// list, which is vtmp again (the buffers swap roles as they fill).
func (s *Session) mergeRuns() list {
	src, runs := s.vtmp, s.runs
	if len(runs) <= 2 {
		return src
	}
	dst := slices.Grow(s.vmrg[:0], len(src))[:len(src)]
	for len(runs) > 2 {
		k := 0
		for i := 0; i+1 < len(runs); i += 2 {
			lo, hi := runs[i], runs[i+1]
			if i+2 < len(runs) {
				mid := hi
				hi = runs[i+2]
				mergeInto(dst[lo:hi], src[lo:mid], src[mid:hi])
			} else {
				copy(dst[lo:hi], src[lo:hi])
			}
			runs[k] = lo
			k++
		}
		runs[k] = len(src)
		runs = runs[:k+1]
		src, dst = dst, src
	}
	s.vtmp, s.vmrg = src, dst
	return src
}

// mergeInto writes the stable merge of a and b, both sorted by
// non-increasing d, into dst: on equal d, a's triple comes first.
func mergeInto(dst, a, b list) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if b[j].d > a[i].d {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// splitPoint splits l at w requests: the prefix l[:i] fits
// whole, and splitW (0 if none) of l[i] is additionally kept to reach
// exactly w.
func splitPoint(l list, w int64) (i int, splitW int64) {
	var got int64
	for i = 0; i < len(l); i++ {
		if got == w {
			return i, 0
		}
		if got+l[i].w <= w {
			got += l[i].w
			continue
		}
		return i, w - got
	}
	return len(l), 0
}

// extraServer implements (and generalises) the extra-server(j)
// procedure of Algorithm 3: the requests that flowed through server j
// are all re-served inside subtree(j). j keeps whole child lists,
// smallest first, up to W; a free child's list may be split, the rest
// served inside the child's subtree; a saturated child re-covers its
// own subtree by recursion. Children and pending segments
// live in the kids/pend arenas, the keep list in the keep arena; the
// recursion (extraServer of a saturated child, serveInside splits)
// appends beyond this level's segments and truncates back before
// returning, so indices — not slice headers — address the segments
// across recursive calls.
func (s *Session) extraServer(j tree.NodeID) {
	f := s.in.Tree
	kidsBase := len(s.kids)
	for _, c := range f.Children(j) {
		s.kids = append(s.kids, c)
	}
	seg := s.kids[kidsBase:]
	slices.SortFunc(seg, func(a, b tree.NodeID) int {
		ta, tb := s.req[a].total(), s.req[b].total()
		switch {
		case ta < tb:
			return -1
		case ta > tb:
			return 1
		}
		return int(a) - int(b)
	})

	keepBase := len(s.keep)
	budget := s.in.W
	pendBase := len(s.pend)
	// First pass: no recursion, slice headers are stable.
	for _, c := range seg {
		lc := s.req[c]
		w := lc.total()
		if w == 0 {
			continue
		}
		if w <= budget {
			dc := f.Dist(c)
			for _, u := range lc {
				s.keep = append(s.keep, triple{d: tree.SatAdd(u.d, dc), w: u.w, client: u.client})
			}
			budget -= w
			s.req[c] = s.req[c][:0]
			continue
		}
		s.pend = append(s.pend, c)
	}
	pendEnd := len(s.pend)
	for pi := pendBase; pi < pendEnd; pi++ {
		c := s.pend[pi]
		lc := s.req[c]
		if s.inR[c] {
			if f.IsClient(c) {
				panic("multiple: extra-server reached a saturated client")
			}
			s.req[c] = s.req[c][:0]
			s.extraServer(c)
			continue
		}
		i, splitW := 0, int64(0)
		if budget > 0 {
			i, splitW = splitPoint(lc, budget)
			dc := f.Dist(c)
			for _, u := range lc[:i] {
				s.keep = append(s.keep, triple{d: tree.SatAdd(u.d, dc), w: u.w, client: u.client})
			}
			if splitW > 0 {
				s.keep = append(s.keep, triple{d: tree.SatAdd(lc[i].d, dc), w: splitW, client: lc[i].client})
			}
			budget = 0
		}
		// rest of lc, materialised in the part arena so req[c] can be
		// reset before the descent.
		restBase := len(s.part)
		if splitW > 0 {
			s.part = append(s.part, triple{d: lc[i].d, w: lc[i].w - splitW, client: lc[i].client})
			i++
		}
		s.part = append(s.part, lc[i:]...)
		restEnd := len(s.part)
		s.req[c] = s.req[c][:0]
		s.serveInside(c, restBase, restEnd)
		s.part = s.part[:restBase]
	}
	s.pend = s.pend[:pendBase]
	s.kids = s.kids[:kidsBase]

	if len(s.keep) == keepBase {
		s.inR[j] = false
		s.proc[j] = s.proc[j][:0]
		return
	}
	s.proc[j] = append(s.proc[j][:0], s.keep[keepBase:]...)
	s.inR[j] = true
	s.keep = s.keep[:keepBase]
}

// serveInside serves a list that flowed up through c inside
// subtree(c): c, if free, takes up to W units, and the remainder
// descends towards its origin clients. The input list is the part
// arena segment [base, end), and the per-child partitions are appended
// after it (each recursion truncates back to its own base on return).
func (s *Session) serveInside(c tree.NodeID, base, end int) {
	if end == base {
		return
	}
	f := s.in.Tree
	if !s.inR[c] {
		i, splitW := splitPoint(s.part[base:end], s.in.W)
		s.inR[c] = true
		s.proc[c] = append(s.proc[c][:0], s.part[base:base+i]...)
		if splitW > 0 {
			u := s.part[base+i]
			s.proc[c] = append(s.proc[c], triple{d: u.d, w: splitW, client: u.client})
			s.part[base+i].w = u.w - splitW
			base += i
		} else {
			base += i
		}
		if end == base {
			return
		}
	}
	if f.IsClient(c) {
		panic("multiple: request unit descended past its origin client")
	}
	// Partition the remainder by the child each unit came through,
	// preserving the list order inside each part (one filtering scan
	// per child, in child order).
	for _, gc := range f.Children(c) {
		partBase := len(s.part)
		dgc := f.Dist(gc)
		for i := base; i < end; i++ {
			u := s.part[i]
			if s.childToward(c, u.client) == gc {
				s.part = append(s.part, triple{d: u.d - dgc, w: u.w, client: u.client})
			}
		}
		partEnd := len(s.part)
		if partEnd > partBase {
			s.serveInside(gc, partBase, partEnd)
		}
		s.part = s.part[:partBase]
	}
}

// childToward returns the child of c on the path from c down to
// client i.
func (s *Session) childToward(c, i tree.NodeID) tree.NodeID {
	f := s.in.Tree
	for f.Parents[i] != c {
		i = f.Parents[i]
		if i == f.Root() {
			panic("multiple: childToward walked past the root")
		}
	}
	return i
}
