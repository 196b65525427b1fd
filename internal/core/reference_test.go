package core_test

import (
	"fmt"

	"replicatree/internal/core"
	"replicatree/internal/tree"
)

// This file keeps the first implementations of the lower bound and the
// verifier as test oracles for Scratch, which is what the package runs.
// They share nothing with it: the bound recurses over the child lists
// instead of reading the stored postorder, and the verifier keeps its
// tables in maps and checks paths with the tree's own queries.

// referenceLowerBound is the recursive subtree-sum lower bound.
func referenceLowerBound(in *core.Instance) int {
	t := in.Tree
	// capped[h] = Σ of requests of clients whose highest eligible
	// server (the farthest ancestor within dmax) is h.
	capped := make([]int64, t.Len())
	for _, i := range t.Clients() {
		r := t.Requests(i)
		if r == 0 {
			continue
		}
		var d int64
		h := i
		for h != t.Root() {
			nd := tree.SatAdd(d, t.Dist(h))
			if nd > in.DMax {
				break
			}
			d = nd
			h = t.Parent(h)
		}
		capped[h] += r
	}
	// need(j) returns the requests that must be served inside
	// subtree(j) and the bound on replicas there.
	var need func(j tree.NodeID) (inside, n int64)
	need = func(j tree.NodeID) (int64, int64) {
		sum := capped[j]
		var childNeed int64
		for _, c := range t.Children(j) {
			in, n := need(c)
			sum += in
			childNeed += n
		}
		return sum, max(core.CeilDiv(sum, in.W), childNeed)
	}
	_, n := need(t.Root())
	return int(n)
}

// referenceVerify is the map-based feasibility check of sol.
func referenceVerify(in *core.Instance, pol core.Policy, sol *core.Solution) error {
	if err := in.Validate(); err != nil {
		return err
	}
	t := in.Tree
	rset := make(map[tree.NodeID]bool, len(sol.Replicas))
	for _, r := range sol.Replicas {
		if !t.Valid(r) {
			return fmt.Errorf("%w: replica node %d out of range", core.ErrStructure, r)
		}
		if rset[r] {
			return fmt.Errorf("%w: duplicate replica %d", core.ErrStructure, r)
		}
		rset[r] = true
	}
	served := make(map[tree.NodeID]int64)
	loads := make(map[tree.NodeID]int64)
	servers := make(map[tree.NodeID]tree.NodeID) // client -> first server seen (Single check)
	for _, a := range sol.Assignments {
		if !t.Valid(a.Client) || !t.Valid(a.Server) {
			return fmt.Errorf("%w: assignment %+v references invalid node", core.ErrStructure, a)
		}
		if !t.IsClient(a.Client) {
			return fmt.Errorf("%w: assignment source %d is not a client", core.ErrStructure, a.Client)
		}
		if a.Amount <= 0 {
			return fmt.Errorf("%w: non-positive amount in %+v", core.ErrStructure, a)
		}
		if !rset[a.Server] {
			return fmt.Errorf("%w: assignment to non-replica node %d", core.ErrStructure, a.Server)
		}
		if !t.IsAncestor(a.Server, a.Client) {
			return fmt.Errorf("%w: server %d is not on the path of client %d", core.ErrDistance, a.Server, a.Client)
		}
		if d := t.DistanceUp(a.Client, a.Server); d > in.DMax {
			return fmt.Errorf("%w: client %d served by %d at distance %d > dmax %d",
				core.ErrDistance, a.Client, a.Server, d, in.DMax)
		}
		served[a.Client] += a.Amount
		loads[a.Server] += a.Amount
		if pol == core.Single {
			if prev, ok := servers[a.Client]; ok && prev != a.Server {
				return fmt.Errorf("%w: client %d served by both %d and %d under Single",
					core.ErrPolicy, a.Client, prev, a.Server)
			}
			servers[a.Client] = a.Server
		}
	}
	for _, i := range t.Clients() {
		if got, want := served[i], t.Requests(i); got != want {
			return fmt.Errorf("%w: client %d served %d of %d requests", core.ErrCoverage, i, got, want)
		}
	}
	for srv, load := range loads {
		if load > in.W {
			return fmt.Errorf("%w: server %d load %d > W %d", core.ErrCapacity, srv, load, in.W)
		}
	}
	return nil
}
