package core

import (
	"fmt"
	"math/bits"

	"replicatree/internal/tree"
)

// Scratch owns the working arrays of the lower bound and the verifier:
// every per-node table is a dense slice indexed by NodeID, grown once
// and reused across solves, so a Scratch that has grown to an
// instance's size computes both without heap allocations. The package
// functions LowerBound and Verify run on a fresh one. A Scratch is not
// safe for concurrent use; the solver seam pools whole sessions, each
// owning one Scratch.
type Scratch struct {
	inside, need  []int64    // LowerBound tables, per node
	depth         []int32    // per node
	path          []pathStep // per depth: the preorder walk's root path
	served, loads []int64    // Verify tables
	isReplica     []bool
	firstServer   []tree.NodeID
}

func (sc *Scratch) growBound(n int) {
	sc.inside = grow64(sc.inside, n)
	sc.need = grow64(sc.need, n)
	if cap(sc.depth) < n {
		sc.depth = make([]int32, n)
		sc.path = make([]pathStep, n)
	}
	sc.depth, sc.path = sc.depth[:n], sc.path[:n]
}

// pathStep is one node of the root path LowerBound is on, with its
// distance from the root in 128 bits (hi, lo): a sum of int64 edge
// lengths along a path cannot overflow it.
type pathStep struct {
	node   tree.NodeID
	hi, lo uint64
}

func (sc *Scratch) growVerify(n int) {
	sc.served = grow64(sc.served, n)
	sc.loads = grow64(sc.loads, n)
	if cap(sc.isReplica) < n {
		sc.isReplica = make([]bool, n)
	}
	sc.isReplica = sc.isReplica[:n]
	if cap(sc.firstServer) < n {
		sc.firstServer = make([]tree.NodeID, n)
	}
	sc.firstServer = sc.firstServer[:n]
}

func grow64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// LowerBound returns a lower bound on the optimal number of replicas
// valid for both policies. It combines the volume bound ⌈Σri / W⌉ with
// a distance-aware bound: requests of a client that cannot travel
// above node j (because of dmax) must be served by replicas inside
// subtree(j), and replica sets of disjoint subtrees are disjoint. The
// bound is computed in O(|T|·log depth): one walk over the stored
// preorder finds each client's highest eligible server by binary
// search on its root path, and one walk over the postorder sums up.
func (sc *Scratch) LowerBound(in *Instance) int {
	f := in.Tree
	n := f.Len()
	sc.growBound(n)
	// First inside[h] = Σ of requests of clients whose highest
	// eligible server (the farthest ancestor within dmax) is h: those
	// requests can never be served outside subtree(h).
	inside, need, depth, path := sc.inside, sc.need, sc.depth, sc.path
	clear(inside)
	clear(need)
	root := f.Root()
	for _, j := range f.Pre {
		d := int32(0)
		if j == root {
			path[0] = pathStep{node: root}
		} else {
			d = depth[f.Parents[j]] + 1
			up := path[d-1]
			lo, carry := bits.Add64(up.lo, uint64(f.EdgeLens[j]), 0)
			path[d] = pathStep{node: j, hi: up.hi + carry, lo: lo}
		}
		depth[j] = d
		r := f.Reqs[j]
		if r == 0 || !f.IsClient(j) {
			continue
		}
		if in.DMax == NoDistance {
			// Every distance is within NoDistance, saturated ones too.
			inside[root] += r
			continue
		}
		// The distance from j up to path[k] shrinks as k grows: find
		// the smallest k within dmax.
		lo, hi := int32(0), d
		for lo < hi {
			k := (lo + hi) / 2
			dlo, borrow := bits.Sub64(path[d].lo, path[k].lo, 0)
			if path[d].hi-path[k].hi-borrow == 0 && dlo < 1<<63 && int64(dlo) <= in.DMax {
				hi = k
			} else {
				lo = k + 1
			}
		}
		inside[path[lo].node] += r
	}
	// Then, children before parents: inside[j] = requests that must be
	// served inside subtree(j); need[j] = lower bound on replicas
	// inside subtree(j): at least ⌈inside/W⌉, and at least the sum
	// over children (disjoint replica sets). Each node adds both to
	// its parent once it is final.
	for _, j := range f.Post {
		need[j] = max(need[j], CeilDiv(inside[j], in.W))
		if p := f.Parents[j]; p != tree.None {
			inside[p] += inside[j]
			need[p] += need[j]
		}
	}
	return int(need[root])
}

// Verify checks feasibility of sol like Verify, but does not
// re-validate the instance: the caller guarantees a validated instance
// (the solver seam validates it at ingest). It performs no heap
// allocations when the solution is feasible; errors wrap the same
// sentinels as Verify (errors only occur on infeasible solutions,
// where allocating the message is fine).
func (sc *Scratch) Verify(in *Instance, pol Policy, sol *Solution) error {
	f := in.Tree
	n := f.Len()
	sc.growVerify(n)
	isReplica := sc.isReplica
	clear(isReplica)
	for _, r := range sol.Replicas {
		if r < 0 || int(r) >= n {
			return fmt.Errorf("%w: replica node %d out of range", ErrStructure, r)
		}
		if isReplica[r] {
			return fmt.Errorf("%w: duplicate replica %d", ErrStructure, r)
		}
		isReplica[r] = true
	}

	served, loads, firstServer := sc.served, sc.loads, sc.firstServer
	clear(served)
	clear(loads)
	for i := range firstServer {
		firstServer[i] = tree.None
	}
	root := f.Root()
	for _, a := range sol.Assignments {
		if a.Client < 0 || int(a.Client) >= n || a.Server < 0 || int(a.Server) >= n {
			return fmt.Errorf("%w: assignment %+v references invalid node", ErrStructure, a)
		}
		if !f.IsClient(a.Client) {
			return fmt.Errorf("%w: assignment source %d is not a client", ErrStructure, a.Client)
		}
		if a.Amount <= 0 {
			return fmt.Errorf("%w: non-positive amount in %+v", ErrStructure, a)
		}
		if !isReplica[a.Server] {
			return fmt.Errorf("%w: assignment to non-replica node %d", ErrStructure, a.Server)
		}
		var d int64
		h := a.Client
		for h != a.Server {
			if h == root {
				return fmt.Errorf("%w: server %d is not on the path of client %d", ErrDistance, a.Server, a.Client)
			}
			d = tree.SatAdd(d, f.EdgeLens[h])
			h = f.Parents[h]
		}
		if d > in.DMax {
			return fmt.Errorf("%w: client %d served by %d at distance %d > dmax %d",
				ErrDistance, a.Client, a.Server, d, in.DMax)
		}
		served[a.Client] += a.Amount
		loads[a.Server] += a.Amount
		if pol == Single {
			if prev := firstServer[a.Client]; prev != tree.None && prev != a.Server {
				return fmt.Errorf("%w: client %d served by both %d and %d under Single",
					ErrPolicy, a.Client, prev, a.Server)
			}
			firstServer[a.Client] = a.Server
		}
	}

	for j := 0; j < n; j++ {
		id := tree.NodeID(j)
		if !f.IsClient(id) {
			continue
		}
		if served[j] != f.Reqs[j] {
			return fmt.Errorf("%w: client %d served %d of %d requests", ErrCoverage, id, served[j], f.Reqs[j])
		}
	}
	for j := 0; j < n; j++ {
		if loads[j] > in.W {
			return fmt.Errorf("%w: server %d load %d > W %d", ErrCapacity, tree.NodeID(j), loads[j], in.W)
		}
	}
	return nil
}
