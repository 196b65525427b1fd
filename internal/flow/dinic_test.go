package flow

import (
	"math/rand"
	"testing"
)

func TestSingleEdge(t *testing.T) {
	g := NewNetwork(2)
	a := g.AddEdge(0, 1, 7)
	if got := g.MaxFlow(0, 1); got != 7 {
		t.Fatalf("MaxFlow = %d, want 7", got)
	}
	if got := g.Flow(a, 7); got != 7 {
		t.Fatalf("Flow(arc) = %d, want 7", got)
	}
}

func TestSourceIsSink(t *testing.T) {
	g := NewNetwork(1)
	if got := g.MaxFlow(0, 0); got != 0 {
		t.Fatalf("MaxFlow(s,s) = %d, want 0", got)
	}
}

func TestDisconnected(t *testing.T) {
	g := NewNetwork(3)
	g.AddEdge(0, 1, 5)
	if got := g.MaxFlow(0, 2); got != 0 {
		t.Fatalf("MaxFlow = %d, want 0", got)
	}
}

func TestDiamond(t *testing.T) {
	// 0→1→3 and 0→2→3, plus a cross edge 1→2.
	g := NewNetwork(4)
	g.AddEdge(0, 1, 10)
	g.AddEdge(0, 2, 10)
	g.AddEdge(1, 3, 4)
	g.AddEdge(2, 3, 9)
	g.AddEdge(1, 2, 6)
	// Min cut: {1→3 (4), 2→3 (9)} limited also by 0→2 (10): flow =
	// 4 + min(9, 10 ∧ paths) = 4 + 9 = 13.
	if got := g.MaxFlow(0, 3); got != 13 {
		t.Fatalf("MaxFlow = %d, want 13", got)
	}
}

func TestClassicCLRS(t *testing.T) {
	// CLRS figure 26.1 network, max flow 23.
	g := NewNetwork(6)
	g.AddEdge(0, 1, 16)
	g.AddEdge(0, 2, 13)
	g.AddEdge(1, 2, 10)
	g.AddEdge(2, 1, 4)
	g.AddEdge(1, 3, 12)
	g.AddEdge(3, 2, 9)
	g.AddEdge(2, 4, 14)
	g.AddEdge(4, 3, 7)
	g.AddEdge(3, 5, 20)
	g.AddEdge(4, 5, 4)
	if got := g.MaxFlow(0, 5); got != 23 {
		t.Fatalf("MaxFlow = %d, want 23", got)
	}
}

func TestBipartiteMatchingStyle(t *testing.T) {
	// 3 clients × 2 servers transportation: client demands 4,5,6 and
	// server capacities 8,8; client 0 reaches only server 0; client 2
	// only server 1; client 1 both.
	// Max routable = 4 + 6 + min(5, (8-4)+(8-6)) = 15 → all demand.
	g := NewNetwork(7) // 0 src, 1..3 clients, 4..5 servers, 6 sink
	g.AddEdge(0, 1, 4)
	g.AddEdge(0, 2, 5)
	g.AddEdge(0, 3, 6)
	g.AddEdge(1, 4, 4)
	g.AddEdge(2, 4, 5)
	g.AddEdge(2, 5, 5)
	g.AddEdge(3, 5, 6)
	g.AddEdge(4, 6, 8)
	g.AddEdge(5, 6, 8)
	if got := g.MaxFlow(0, 6); got != 15 {
		t.Fatalf("MaxFlow = %d, want 15", got)
	}
}

// TestFlowConservationRandom checks flow conservation and capacity
// bounds on random layered networks by reading back arc flows.
func TestFlowConservationRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(12)
		type edge struct {
			u, v int
			c    int64
			arc  int
		}
		g := NewNetwork(n + 2)
		src, snk := n, n+1
		var edges []edge
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				e := edge{src, i, 1 + rng.Int63n(20), 0}
				e.arc = g.AddEdge(e.u, e.v, e.c)
				edges = append(edges, e)
			}
			if rng.Intn(2) == 0 {
				e := edge{i, snk, 1 + rng.Int63n(20), 0}
				e.arc = g.AddEdge(e.u, e.v, e.c)
				edges = append(edges, e)
			}
			for j := 0; j < n; j++ {
				if i != j && rng.Intn(4) == 0 {
					e := edge{i, j, 1 + rng.Int63n(20), 0}
					e.arc = g.AddEdge(e.u, e.v, e.c)
					edges = append(edges, e)
				}
			}
		}
		total := g.MaxFlow(src, snk)
		net := make([]int64, n+2)
		var out, in int64
		for _, e := range edges {
			f := g.Flow(e.arc, e.c)
			if f < 0 || f > e.c {
				t.Fatalf("trial %d: arc flow %d outside [0,%d]", trial, f, e.c)
			}
			net[e.u] -= f
			net[e.v] += f
			if e.u == src {
				out += f
			}
			if e.v == snk {
				in += f
			}
		}
		if out != total || in != total {
			t.Fatalf("trial %d: src out %d, sink in %d, reported %d", trial, out, in, total)
		}
		for i := 0; i < n; i++ {
			if net[i] != 0 {
				t.Fatalf("trial %d: node %d violates conservation by %d", trial, i, net[i])
			}
		}
	}
}

// TestResumeAfterEdit edits a routed flow — one edge taken out, its
// flow handed back to the source arc — and resumes MaxFlow from it,
// then puts the saved residuals back.
func TestResumeAfterEdit(t *testing.T) {
	// 0→2→1 and 0→3→1, with 2→3 as a detour and room on 3→1.
	g := NewNetwork(4)
	src := g.AddEdge(0, 2, 5)
	a := g.AddEdge(2, 1, 5)
	g.AddEdge(0, 3, 5)
	g.AddEdge(3, 1, 10)
	g.AddEdge(2, 3, 5)
	if got := g.MaxFlow(0, 1); got != 10 {
		t.Fatalf("MaxFlow = %d, want 10", got)
	}
	saved := g.SaveResiduals(nil)
	lost := g.Flow(a, 5)
	if lost != 5 {
		t.Fatalf("2→1 carried %d, want 5", lost)
	}
	g.SetFlow(src, 5, g.Flow(src, 5)-lost)
	g.SetFlow(a, 0, 0)
	// The detour 2→3→1 takes back all that 2→1 carried.
	if got := g.MaxFlow(0, 1); got != lost {
		t.Fatalf("resumed MaxFlow = %d, want %d", got, lost)
	}
	g.RestoreResiduals(saved)
	if got := g.Flow(a, 5); got != lost {
		t.Fatalf("restored flow on 2→1 = %d, want %d", got, lost)
	}
	if got := g.MaxFlow(0, 1); got != 0 {
		t.Fatalf("MaxFlow after restore = %d, want 0", got)
	}
}
