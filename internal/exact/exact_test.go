package exact

import (
	"errors"
	"math/rand"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/tree"
)

func buildInst(W, dmax int64) *core.Instance {
	b := tree.NewBuilder()
	root := b.Root("root")
	a := b.Internal(root, 1, "a")
	bb := b.Internal(root, 1, "b")
	b.Client(a, 1, 5, "c1")
	b.Client(a, 1, 7, "c2")
	b.Client(bb, 2, 6, "c3")
	b.Client(bb, 1, 4, "c4")
	return &core.Instance{Tree: b.MustBuild(), W: W, DMax: dmax}
}

func TestSolveSingleKnownOptima(t *testing.T) {
	cases := []struct {
		W, dmax int64
		want    int
	}{
		{22, core.NoDistance, 1},
		{12, core.NoDistance, 2}, // {c1,c2}@a, {c3,c4}@b
		{11, core.NoDistance, 3}, // whole-client packing into 11s: 5+6=11, 7+4=11 needs cross-subtree grouping at root: c2+c4 = 11 at root, c1+c3 = 11 — c1,c3 only share root; one root only → 3
		{7, core.NoDistance, 4},  // no two clients fit together
		{22, 0, 4},               // all local
	}
	for _, tc := range cases {
		in := buildInst(tc.W, tc.dmax)
		sol, err := SolveSingle(in, Options{})
		if err != nil {
			t.Fatalf("W=%d dmax=%d: %v", tc.W, tc.dmax, err)
		}
		if err := core.Verify(in, core.Single, sol); err != nil {
			t.Fatalf("W=%d dmax=%d infeasible: %v", tc.W, tc.dmax, err)
		}
		if sol.NumReplicas() != tc.want {
			t.Errorf("SolveSingle(W=%d dmax=%d) = %d, want %d", tc.W, tc.dmax, sol.NumReplicas(), tc.want)
		}
	}
}

func TestSolveMultipleKnownOptima(t *testing.T) {
	cases := []struct {
		W, dmax int64
		want    int
	}{
		{22, core.NoDistance, 1},
		{11, core.NoDistance, 2}, // splitting reaches the volume bound
		{8, core.NoDistance, 3},
		{6, core.NoDistance, 4},
		{22, 0, 4},
	}
	for _, tc := range cases {
		in := buildInst(tc.W, tc.dmax)
		sol, err := SolveMultiple(in, Options{})
		if err != nil {
			t.Fatalf("W=%d dmax=%d: %v", tc.W, tc.dmax, err)
		}
		if err := core.Verify(in, core.Multiple, sol); err != nil {
			t.Fatalf("W=%d dmax=%d infeasible: %v", tc.W, tc.dmax, err)
		}
		if sol.NumReplicas() != tc.want {
			t.Errorf("SolveMultiple(W=%d dmax=%d) = %d, want %d", tc.W, tc.dmax, sol.NumReplicas(), tc.want)
		}
	}
}

func TestSolveSingleInfeasible(t *testing.T) {
	in := buildInst(6, core.NoDistance) // c2 = 7 > 6
	if _, err := SolveSingle(in, Options{}); err == nil {
		t.Fatal("SolveSingle should reject ri > W")
	}
}

func TestSolveMultipleOversizedClient(t *testing.T) {
	// A client with 2W requests: Multiple splits it across its path.
	b := tree.NewBuilder()
	r := b.Root("r")
	a := b.Internal(r, 1, "a")
	b.Client(a, 1, 10, "big")
	b.Client(r, 1, 2, "small")
	in := &core.Instance{Tree: b.MustBuild(), W: 5, DMax: core.NoDistance}
	sol, err := SolveMultiple(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 12 requests, W = 5 → ≥ 3 servers; big alone needs 2 (10 = 2×5
	// over {big, a, r}): 3 achievable: {big, a, r}.
	if sol.NumReplicas() != 3 {
		t.Fatalf("want 3 replicas, got %v", sol)
	}
}

func TestSolveMultipleTrulyInfeasible(t *testing.T) {
	// 12 requests on one client, dmax = 0, W = 5: only the client
	// itself is eligible → max 5 servable.
	b := tree.NewBuilder()
	r := b.Root("r")
	b.Client(r, 1, 12, "big")
	b.Client(r, 1, 1, "small")
	in := &core.Instance{Tree: b.MustBuild(), W: 5, DMax: 0}
	if _, err := SolveMultiple(in, Options{}); err == nil {
		t.Fatal("should report infeasibility")
	}
}

func TestMultipleNeverWorseThanSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 80; trial++ {
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    1 + rng.Intn(4),
			MaxArity:     2 + rng.Intn(2),
			MaxDist:      3,
			MaxReq:       8,
			ExtraClients: rng.Intn(3),
		}, trial%2 == 0)
		s, err := SolveSingle(in, Options{})
		if err != nil {
			t.Fatalf("trial %d single: %v", trial, err)
		}
		m, err := SolveMultiple(in, Options{})
		if err != nil {
			t.Fatalf("trial %d multiple: %v", trial, err)
		}
		if m.NumReplicas() > s.NumReplicas() {
			t.Fatalf("trial %d: Multiple optimum %d > Single optimum %d",
				trial, m.NumReplicas(), s.NumReplicas())
		}
		if m.NumReplicas() < core.LowerBound(in) {
			t.Fatalf("trial %d: optimum %d below lower bound %d",
				trial, m.NumReplicas(), core.LowerBound(in))
		}
	}
}

func TestBudgetExceeded(t *testing.T) {
	in := buildInst(8, core.NoDistance)
	if _, err := SolveMultiple(in, Options{Budget: 1}); !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
	if _, err := SolveSingle(in, Options{Budget: 1}); !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

func TestFeasibilityOracles(t *testing.T) {
	in := buildInst(12, core.NoDistance)
	root := in.Tree.Root()
	var a, b tree.NodeID
	for _, n := range in.Tree.Internals() {
		switch in.Tree.Label(n) {
		case "a":
			a = n
		case "b":
			b = n
		}
	}
	if !MultipleFeasible(in, []tree.NodeID{a, b}) {
		t.Error("{a,b} serves 12+10 under Multiple")
	}
	if MultipleFeasible(in, []tree.NodeID{root}) {
		t.Error("a single W=12 server cannot serve 22 requests")
	}
	if MultipleFeasible(in, nil) {
		t.Error("empty replica set with positive requests")
	}
}

func TestMultipleAssignmentRecovery(t *testing.T) {
	in := buildInst(11, core.NoDistance)
	sol, err := SolveMultiple(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Re-derive an assignment for the returned replica set directly.
	sol2, err := MultipleAssignment(in, sol.Replicas)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(in, core.Multiple, sol2); err != nil {
		t.Fatal(err)
	}
	if _, err := MultipleAssignment(in, []tree.NodeID{in.Tree.Root()}); err == nil {
		t.Fatal("MultipleAssignment on infeasible set should fail")
	}
}

func TestCandidatesCoverClients(t *testing.T) {
	in := buildInst(12, 2)
	var o Transport
	o.Reset(in)
	cands, _ := o.Candidates()
	// Every client with requests must itself be a candidate.
	set := make(map[tree.NodeID]bool)
	for _, c := range cands {
		set[c] = true
	}
	for _, c := range in.Tree.Clients() {
		if in.Tree.Requests(c) > 0 && !set[c] {
			t.Errorf("client %d missing from candidates", c)
		}
	}
	// With dmax=2, node b (distance 2 from c3? c3 has edge 2 → b at 2
	// ≤ 2) is eligible; root is at 3 from c3 and 2 from c2's... the
	// candidate set must exclude nodes that can serve no one.
	for _, s := range cands {
		servesAny := false
		for _, c := range in.Tree.Clients() {
			if in.Tree.Requests(c) > 0 && in.CanServe(c, s) {
				servesAny = true
			}
		}
		if !servesAny {
			t.Errorf("candidate %d serves no client", s)
		}
	}
}

func TestZeroRequestInstance(t *testing.T) {
	b := tree.NewBuilder()
	r := b.Root("r")
	b.Client(r, 1, 0, "idle1")
	b.Client(r, 1, 0, "idle2")
	in := &core.Instance{Tree: b.MustBuild(), W: 5, DMax: core.NoDistance}
	s, err := SolveSingle(in, Options{})
	if err != nil || s.NumReplicas() != 0 {
		t.Fatalf("SolveSingle on zero requests: %v, %v", s, err)
	}
	m, err := SolveMultiple(in, Options{})
	if err != nil || m.NumReplicas() != 0 {
		t.Fatalf("SolveMultiple on zero requests: %v, %v", m, err)
	}
}
