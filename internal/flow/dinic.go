// Package flow implements Dinic's maximum-flow algorithm on small
// integer-capacity networks, and a min-cost flow. Max-flow decides the
// Multiple policy: given a fixed replica set, whether all client
// requests can be routed to eligible servers is a transportation
// problem. exact.Transport builds that network, the tree's only
// max-flow network, and every Multiple feasibility test and
// assignment runs on it.
package flow

// Network is a directed flow network under construction. Nodes are
// dense ints; add edges with AddEdge, then call MaxFlow. A Network can
// be recycled with Reset, which keeps the grown arc and traversal
// buffers — repeated builds of same-shape networks then allocate
// nothing.
type Network struct {
	n     int
	head  []int32 // head[v]: first arc index of v, -1 if none
	next  []int32 // next arc in v's list
	to    []int32
	cap   []int64
	level []int32
	iter  []int32
	queue []int32
}

// NewNetwork returns a network with n nodes and no arcs.
func NewNetwork(n int) *Network {
	g := &Network{}
	g.Reset(n)
	return g
}

// Reset reinitialises the network to n nodes and no arcs, reusing all
// previously grown buffers.
func (g *Network) Reset(n int) {
	g.n = n
	if cap(g.head) < n {
		g.head = make([]int32, n)
	}
	g.head = g.head[:n]
	for i := range g.head {
		g.head[i] = -1
	}
	g.to = g.to[:0]
	g.cap = g.cap[:0]
	g.next = g.next[:0]
}

// AddEdge adds a directed edge u→v with the given capacity (and the
// reverse residual arc with capacity 0). It returns the arc index,
// which can be used with Flow to read how much was routed.
func (g *Network) AddEdge(u, v int, capacity int64) int {
	idx := len(g.to)
	g.push(u, v, capacity)
	g.push(v, u, 0)
	return idx
}

func (g *Network) push(u, v int, c int64) {
	g.to = append(g.to, int32(v))
	g.cap = append(g.cap, c)
	g.next = append(g.next, g.head[u])
	g.head[u] = int32(len(g.to) - 1)
}

// Flow returns the amount of flow routed on the arc returned by
// AddEdge, i.e. its original capacity minus its residual capacity.
// Must be called after MaxFlow; origCap is the capacity passed to
// AddEdge.
func (g *Network) Flow(arc int, origCap int64) int64 {
	return origCap - g.cap[arc]
}

// SetFlow gives the arc returned by AddEdge a new capacity with flow
// units already routed on it (0 ≤ flow ≤ capacity); SetFlow(arc, 0, 0)
// takes the edge out of the network. Together with Flow it lets a
// caller edit a routed flow and then resume MaxFlow from it: MaxFlow
// augments whatever flow the residual capacities describe.
func (g *Network) SetFlow(arc int, capacity, flow int64) {
	g.cap[arc] = capacity - flow
	g.cap[arc^1] = flow
}

// SaveResiduals copies every arc's residual capacity into dst, reusing
// its array, and returns it.
func (g *Network) SaveResiduals(dst []int64) []int64 {
	return append(dst[:0], g.cap...)
}

// RestoreResiduals puts back the residual capacities SaveResiduals
// copied from this network since its arcs were last added.
func (g *Network) RestoreResiduals(src []int64) {
	copy(g.cap, src)
}

// MaxFlow computes the maximum s→t flow. On a network that already
// carries flow it returns the flow it adds.
func (g *Network) MaxFlow(s, t int) int64 {
	if s == t {
		return 0
	}
	var total int64
	g.level = growInt32(g.level, g.n)
	g.iter = growInt32(g.iter, g.n)
	for g.bfs(s, t) {
		copy(g.iter, g.head)
		for {
			f := g.dfs(s, t, int64(1)<<62)
			if f == 0 {
				break
			}
			total += f
		}
	}
	return total
}

func (g *Network) bfs(s, t int) bool {
	for i := range g.level {
		g.level[i] = -1
	}
	q := g.queue[:0]
	g.level[s] = 0
	q = append(q, int32(s))
	for qi := 0; qi < len(q); qi++ {
		v := q[qi]
		for e := g.head[v]; e != -1; e = g.next[e] {
			if g.cap[e] > 0 && g.level[g.to[e]] < 0 {
				g.level[g.to[e]] = g.level[v] + 1
				q = append(q, g.to[e])
			}
		}
	}
	g.queue = q
	return g.level[t] >= 0
}

func (g *Network) dfs(v, t int, f int64) int64 {
	if v == t {
		return f
	}
	for ; g.iter[v] != -1; g.iter[v] = g.next[g.iter[v]] {
		e := g.iter[v]
		u := g.to[e]
		if g.cap[e] > 0 && g.level[u] == g.level[v]+1 {
			min := f
			if g.cap[e] < min {
				min = g.cap[e]
			}
			d := g.dfs(int(u), t, min)
			if d > 0 {
				g.cap[e] -= d
				g.cap[e^1] += d
				return d
			}
		}
	}
	return 0
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}
