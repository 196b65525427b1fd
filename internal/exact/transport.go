package exact

import (
	"cmp"
	"fmt"
	"slices"

	"replicatree/internal/core"
	"replicatree/internal/flow"
	"replicatree/internal/tree"
)

// Transport is the Multiple-policy feasibility oracle of one instance.
// A replica set R serves every client within dmax exactly when the
// client→server transportation network routes all requests: node 0 is
// the source, node 1 the sink, the clients with requests follow, then
// the distinct servers of R in first-occurrence order. Source→client
// arcs carry ri, client→server arcs (the server eligible for the
// client) carry ri, and server→sink arcs carry the server's capacity.
//
// Reset ingests the instance once: it builds the client CSR and may
// allocate. Route, Drop and Assign then rebuild the network inside a
// recycled flow.Network, so a warm oracle allocates nothing. A
// Transport is not safe for concurrent use.
type Transport struct {
	caps []int64 // node-indexed sink capacity; 0 serves no one
	own  []int64 // backs caps on a uniform instance

	// The client CSR: clients with r > 0 in increasing ID, and each
	// one's eligible servers (positive capacity, on its root path within
	// dmax) in path order, client first.
	clients   []tree.NodeID
	reqs      []int64
	eligStart []int32
	eligSrv   []tree.NodeID

	// The network of the last set built.
	serverNode []int32       // node-indexed flow node of a server of R, -1 absent
	rdedup     []tree.NodeID // the distinct servers of R
	net        flow.Network
	arcs       []transArc
	srcArcs    []int   // per client: its source arc
	sinkArcs   []int   // per rdedup index: the server's sink arc
	byServer   []int32 // per rdedup index: where its arcs start in serverArcs
	serverArcs []int32 // indices into arcs, grouped by server
	saved      []int64 // residuals saved across a drop test
}

// transArc is a client→server edge of the network; ci indexes clients.
type transArc struct {
	ci     int32
	server tree.NodeID
	arc    int
}

// Reset binds the oracle to a uniform instance: every node's capacity
// is W.
func (o *Transport) Reset(in *core.Instance) {
	n := in.Tree.Len()
	if cap(o.own) < n {
		o.own = make([]int64, n)
	}
	o.own = o.own[:n]
	for j := range o.own {
		o.own[j] = in.W
	}
	o.ResetCaps(in.Tree, in.DMax, o.own)
}

// ResetCaps binds the oracle to tree t with per-node capacities caps
// (one per node, kept by reference) and distance bound dmax.
func (o *Transport) ResetCaps(t *tree.Tree, dmax int64, caps []int64) {
	o.caps = caps
	o.clients = o.clients[:0]
	o.reqs = o.reqs[:0]
	o.eligStart = o.eligStart[:0]
	o.eligSrv = o.eligSrv[:0]
	n := t.Len()
	for j := 0; j < n; j++ {
		id := tree.NodeID(j)
		if !t.IsClient(id) || t.Reqs[j] == 0 {
			continue
		}
		o.clients = append(o.clients, id)
		o.reqs = append(o.reqs, t.Reqs[j])
		o.eligStart = append(o.eligStart, int32(len(o.eligSrv)))
		var d int64
		for v := id; d <= dmax; v = t.Parents[v] {
			if caps[v] > 0 {
				o.eligSrv = append(o.eligSrv, v)
			}
			if v == t.Root() {
				break
			}
			d = tree.SatAdd(d, t.EdgeLens[v])
		}
	}
	o.eligStart = append(o.eligStart, int32(len(o.eligSrv)))

	if cap(o.serverNode) < n {
		o.serverNode = make([]int32, n)
	}
	o.serverNode = o.serverNode[:n]
	for i := range o.serverNode {
		o.serverNode[i] = -1
	}
	o.rdedup = o.rdedup[:0]
}

// elig returns client ci's eligible servers.
func (o *Transport) elig(ci int) []tree.NodeID {
	return o.eligSrv[o.eligStart[ci]:o.eligStart[ci+1]]
}

// Candidates returns the nodes that can serve some request, by
// decreasing capacity, then decreasing coverage, then ID, and every
// node's coverage: the requests of the clients it is eligible for. On
// a uniform instance the order is by coverage alone.
func (o *Transport) Candidates() (cands []tree.NodeID, cover []int64) {
	cover = make([]int64, len(o.caps))
	for ci, r := range o.reqs {
		for _, s := range o.elig(ci) {
			cover[s] += r
		}
	}
	for j, c := range cover {
		if c > 0 {
			cands = append(cands, tree.NodeID(j))
		}
	}
	slices.SortFunc(cands, func(a, b tree.NodeID) int {
		if c := cmp.Compare(o.caps[b], o.caps[a]); c != 0 {
			return c
		}
		if c := cmp.Compare(cover[b], cover[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return cands, cover
}

// build lays out the network for R. Per server, the sink arc is pushed
// last and therefore scanned first. It leaves the servers of R marked
// in serverNode until the next build.
func (o *Transport) build(R []tree.NodeID) (total int64) {
	for _, srv := range o.rdedup {
		o.serverNode[srv] = -1
	}
	nc := len(o.clients)
	o.rdedup = o.rdedup[:0]
	for _, srv := range R {
		if o.serverNode[srv] < 0 {
			o.serverNode[srv] = int32(2 + nc + len(o.rdedup))
			o.rdedup = append(o.rdedup, srv)
		}
	}
	o.net.Reset(2 + nc + len(o.rdedup))
	o.arcs = o.arcs[:0]
	o.srcArcs = o.srcArcs[:0]
	for ci, r := range o.reqs {
		total += r
		o.srcArcs = append(o.srcArcs, o.net.AddEdge(0, 2+ci, r))
		for _, srv := range o.elig(ci) {
			if sn := o.serverNode[srv]; sn >= 0 {
				o.arcs = append(o.arcs, transArc{ci: int32(ci), server: srv, arc: o.net.AddEdge(2+ci, int(sn), r)})
			}
		}
	}
	o.sinkArcs = o.sinkArcs[:0]
	for _, srv := range o.rdedup {
		o.sinkArcs = append(o.sinkArcs, o.net.AddEdge(int(o.serverNode[srv]), 1, o.caps[srv]))
	}
	return total
}

// Route builds the network for R, whose nodes must be nodes of the
// bound tree, routes a maximum flow on it and reports whether R serves
// every request. When it does, Drop may then take servers of R out one
// at a time.
func (o *Transport) Route(R []tree.NodeID) bool {
	total := o.build(R)
	nc := len(o.clients)
	o.byServer = growInt32(o.byServer, len(o.rdedup)+1)
	clear(o.byServer)
	for _, a := range o.arcs {
		o.byServer[int(o.serverNode[a.server])-2-nc+1]++
	}
	for q := 1; q < len(o.byServer); q++ {
		o.byServer[q] += o.byServer[q-1]
	}
	o.serverArcs = growInt32(o.serverArcs, len(o.arcs))
	for k, a := range o.arcs {
		q := int(o.serverNode[a.server]) - 2 - nc
		o.serverArcs[o.byServer[q]] = int32(k)
		o.byServer[q]++
	}
	// byServer[q] is now where server q's arcs end; shift it back to
	// where they start.
	copy(o.byServer[1:], o.byServer[:len(o.byServer)-1])
	o.byServer[0] = 0
	return o.net.MaxFlow(0, 1) == total
}

// Drop tests whether the routed set stays feasible without server srv,
// given that the flow routed now serves every request. It takes srv's
// edges out of the flow, hands each client's flow through srv back to
// the client's source arc and re-runs Dinic from there: srv can go iff
// the re-run routes again everything srv carried. If so srv stays out
// and the flow serves every request again; if not the flow is put
// back. The max-flow value is unique, so the verdict is the one a fresh
// Route of the reduced set gives.
func (o *Transport) Drop(srv tree.NodeID) bool {
	q := int(o.serverNode[srv]) - 2 - len(o.clients)
	sink := o.sinkArcs[q]
	lost := o.net.Flow(sink, o.caps[srv])
	if lost > 0 {
		o.saved = o.net.SaveResiduals(o.saved)
	}
	for _, k := range o.serverArcs[o.byServer[q]:o.byServer[q+1]] {
		a := o.arcs[k]
		r := o.reqs[a.ci]
		if f := o.net.Flow(a.arc, r); f > 0 {
			src := o.srcArcs[a.ci]
			o.net.SetFlow(src, r, o.net.Flow(src, r)-f)
		}
		o.net.SetFlow(a.arc, 0, 0)
	}
	o.net.SetFlow(sink, 0, 0)
	if lost == 0 || o.net.MaxFlow(0, 1) == lost {
		return true
	}
	o.net.RestoreResiduals(o.saved)
	return false
}

// Assign appends to sol an assignment for replica set R read off the
// max-flow arc values (the distinct servers of R, then every positive
// client→server flow) and normalizes it. It fails when R cannot serve
// every request.
func (o *Transport) Assign(sol *core.Solution, R []tree.NodeID) error {
	total := o.build(R)
	if got := o.net.MaxFlow(0, 1); got != total {
		return fmt.Errorf("exact: replica set %v infeasible (flow %d of %d)", R, got, total)
	}
	sol.Replicas = append(sol.Replicas, o.rdedup...)
	for _, a := range o.arcs {
		if amt := o.net.Flow(a.arc, o.reqs[a.ci]); amt > 0 {
			sol.Assign(o.clients[a.ci], a.server, amt)
		}
	}
	sol.Normalize()
	return nil
}

// GrowPrune is the grow-then-prune heuristic on the oracle: it appends
// pool's servers to set, in order, until set serves every request,
// then drops servers from the back of set while it still does. It
// reports false when set and the whole pool cannot serve every request.
//
// Feasibility is monotone in the set, so a server that cannot go when
// tested cannot go from any smaller set either: one backward pass
// leaves exactly the set that restarting from the back after every
// drop would.
func (o *Transport) GrowPrune(set, pool []tree.NodeID) ([]tree.NodeID, bool) {
	for i := 0; !o.Route(set); i++ {
		if i >= len(pool) {
			return nil, false
		}
		set = append(set, pool[i])
	}
	for i := len(set) - 1; i >= 0; i-- {
		if o.Drop(set[i]) {
			set = slices.Delete(set, i, i+1)
		}
	}
	return set, true
}

// MultipleFeasible reports whether replica set R can serve all requests
// under the Multiple policy.
func MultipleFeasible(in *core.Instance, R []tree.NodeID) bool {
	var o Transport
	o.Reset(in)
	return o.Route(R)
}

// MultipleAssignment recovers a concrete assignment for replica set R
// (which must be feasible) by reading the max-flow arc values.
func MultipleAssignment(in *core.Instance, R []tree.NodeID) (*core.Solution, error) {
	var o Transport
	o.Reset(in)
	sol := &core.Solution{}
	if err := o.Assign(sol, R); err != nil {
		return nil, err
	}
	return sol, nil
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
