// Package multiple implements the Multiple-policy algorithms:
// Algorithm 3 (multiple-bin), the paper's polynomial-time optimal
// algorithm for Multiple-Bin when every client fits on one server
// (ri ≤ W, Theorem 6), and Greedy, its generalisation to arbitrary
// arity (optimal for binary trees by construction, evaluated
// empirically against exact optima elsewhere — the general
// distance-constrained problem is NP-hard).
package multiple

import "replicatree/internal/tree"

// triple is the (d, w, i) record of Algorithm 3: w requests issued by
// client i that have travelled distance d so far, and can therefore be
// served at the current node only if d ≤ dmax (and at the parent only
// if d + δ ≤ dmax).
type triple struct {
	d      int64
	w      int64
	client tree.NodeID
}

// list is a request list sorted by non-increasing d: the head is the
// most distance-constrained batch, which must be served first.
type list []triple

// total returns the number of requests in the list.
func (l list) total() int64 {
	var s int64
	for i := range l {
		s += l[i].w
	}
	return s
}
