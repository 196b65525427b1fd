// Package core defines the replica placement problem of Benoit,
// Larchevêque and Renaud-Goud (RR-7750 / IPDPS 2012): an Instance
// couples a distribution tree with a server capacity W and a distance
// bound dmax; a Solution is a replica set plus a request assignment.
// The package provides the full feasibility verifier, lower bounds and
// the trivial "replica on every client" solution used as a universal
// fallback.
package core

import (
	"errors"
	"fmt"

	"replicatree/internal/tree"
)

// Policy selects the access policy of the paper.
type Policy uint8

const (
	// Single: all requests of a client are served by one server.
	Single Policy = iota
	// Multiple: the requests of a client may be split over several
	// servers on its path to the root.
	Multiple
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case Single:
		return "Single"
	case Multiple:
		return "Multiple"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// NoDistance is the dmax value meaning "no distance constraint"
// (the NoD problem variants).
const NoDistance int64 = tree.Infinity

// Instance is a replica placement problem instance.
type Instance struct {
	Tree *tree.Tree
	W    int64 // server capacity (requests per time unit)
	DMax int64 // distance bound; NoDistance disables the constraint
}

// NoD reports whether the instance has no distance constraint.
func (in *Instance) NoD() bool { return in.DMax == NoDistance }

// Validate checks what a built tree cannot promise: that there is a
// non-empty tree, a positive capacity and a non-negative distance
// bound. The tree itself is not walked again. Every constructor
// (tree.Builder, both JSON decoders, ReadChunked) validates the tree it
// returns, and only tree.Editor, which checks each edit, changes a
// built tree, so a tree that exists is a valid tree. O(1).
func (in *Instance) Validate() error {
	return validate(in.Tree, in.W, in.DMax)
}

// validate is the check both instance forms apply: a non-empty tree, a
// positive capacity and a non-negative distance bound (0 lets every
// client be served only locally).
func validate(t *tree.Tree, w, dmax int64) error {
	if t == nil || t.Len() == 0 {
		return errors.New("core: instance has no tree")
	}
	if w <= 0 {
		return fmt.Errorf("core: non-positive capacity W=%d", w)
	}
	if dmax < 0 {
		return fmt.Errorf("core: negative distance bound dmax=%d", dmax)
	}
	return nil
}

// FitsLocally reports whether every client satisfies ri ≤ W, the
// precondition under which the trivial solution R = C exists (so it
// is Feasible(Single), without building the client list) and under
// which Algorithm 3 (multiple-bin) is optimal.
func (in *Instance) FitsLocally() bool {
	return in.Tree.MaxRequests() <= in.W
}

// Feasible reports whether the instance admits any solution under the
// given policy. With Single the requests of a client are unsplittable,
// so ri ≤ W is required; with Multiple a client i needs enough total
// capacity among its eligible servers: |eligible(i)|·W ≥ ri.
func (in *Instance) Feasible(pol Policy) bool {
	for _, i := range in.Tree.Clients() {
		r := in.Tree.Requests(i)
		if r == 0 {
			continue
		}
		switch pol {
		case Single:
			if r > in.W {
				return false
			}
		case Multiple:
			elig := int64(len(in.Tree.EligibleServers(i, in.DMax)))
			if r > elig*in.W {
				return false
			}
		}
	}
	return true
}

// CanServe reports whether node s may process requests of client i:
// s must lie on the path from i to the root and within distance dmax.
func (in *Instance) CanServe(i, s tree.NodeID) bool {
	t := in.Tree
	var d int64
	j := i
	for {
		if j == s {
			return d <= in.DMax
		}
		if j == t.Root() {
			return false
		}
		d = tree.SatAdd(d, t.Dist(j))
		j = t.Parent(j)
	}
}
