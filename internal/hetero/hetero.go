// Package hetero extends the replica placement problem to
// heterogeneous servers: each node j has its own capacity Cap[j]
// instead of the paper's uniform W. This is the natural systems
// extension of the paper's model (its companion work [3] treats the
// homogeneous case; real deployments mix appliance generations).
//
// The package provides the Multiple-policy variant — an exact solver
// by replica-set search and a polynomial greedy with local-search
// pruning — and an exact Single solver. It keeps no search or flow
// code of its own: the solvers are front ends that bind exact's
// feasibility oracle (exact.Transport) to the per-node capacities and
// run exact's searches on it, each with its own validation, error
// texts and lower bound. The uniform-capacity special case therefore
// coincides with the core problem, which the tests cross-check against
// the paper's algorithms.
package hetero

import (
	"errors"
	"fmt"

	"replicatree/internal/core"
	"replicatree/internal/exact"
	"replicatree/internal/tree"
)

// Instance is a heterogeneous replica placement instance under the
// Multiple policy.
type Instance struct {
	Tree *tree.Tree
	// Cap[j] is the serving capacity of node j if a replica is placed
	// there; 0 disallows placing a replica at j.
	Cap  []int64
	DMax int64
}

// FromUniform lifts a core.Instance into a heterogeneous one with
// Cap[j] = W everywhere.
func FromUniform(in *core.Instance) *Instance {
	caps := make([]int64, in.Tree.Len())
	for j := range caps {
		caps[j] = in.W
	}
	return &Instance{Tree: in.Tree, Cap: caps, DMax: in.DMax}
}

// Validate checks instance invariants. As for core.Instance, the tree
// was validated when it was built and is not walked again.
func (in *Instance) Validate() error {
	if in.Tree == nil || in.Tree.Len() == 0 {
		return errors.New("hetero: no tree")
	}
	if len(in.Cap) != in.Tree.Len() {
		return fmt.Errorf("hetero: %d capacities for %d nodes", len(in.Cap), in.Tree.Len())
	}
	for j, c := range in.Cap {
		if c < 0 {
			return fmt.Errorf("hetero: negative capacity %d at node %d", c, j)
		}
	}
	if in.DMax < 0 {
		return fmt.Errorf("hetero: negative dmax %d", in.DMax)
	}
	return nil
}

// NoD reports whether the distance constraint is disabled.
func (in *Instance) NoD() bool { return in.DMax == tree.Infinity }

// Verify checks that sol is feasible: coverage, per-node capacities,
// path and distance constraints (Multiple policy).
func (in *Instance) Verify(sol *core.Solution) error {
	if err := in.Validate(); err != nil {
		return err
	}
	t := in.Tree
	rset := sol.ReplicaSet()
	loads := make(map[tree.NodeID]int64)
	served := make(map[tree.NodeID]int64)
	for _, a := range sol.Assignments {
		if !t.Valid(a.Client) || !t.Valid(a.Server) || a.Amount <= 0 {
			return fmt.Errorf("hetero: malformed assignment %+v", a)
		}
		if !rset[a.Server] {
			return fmt.Errorf("hetero: assignment to non-replica %d", a.Server)
		}
		if !t.IsAncestor(a.Server, a.Client) {
			return fmt.Errorf("hetero: server %d off the path of client %d", a.Server, a.Client)
		}
		if t.DistanceUp(a.Client, a.Server) > in.DMax {
			return fmt.Errorf("hetero: client %d beyond dmax from %d", a.Client, a.Server)
		}
		loads[a.Server] += a.Amount
		served[a.Client] += a.Amount
	}
	for _, r := range sol.Replicas {
		if !t.Valid(r) {
			return fmt.Errorf("hetero: invalid replica %d", r)
		}
		if loads[r] > in.Cap[r] {
			return fmt.Errorf("hetero: node %d load %d > capacity %d", r, loads[r], in.Cap[r])
		}
	}
	for _, c := range t.Clients() {
		if served[c] != t.Requests(c) {
			return fmt.Errorf("hetero: client %d served %d of %d", c, served[c], t.Requests(c))
		}
	}
	return nil
}

// transport binds exact's feasibility oracle to in's capacities.
func (in *Instance) transport() *exact.Transport {
	o := new(exact.Transport)
	o.ResetCaps(in.Tree, in.DMax, in.Cap)
	return o
}
