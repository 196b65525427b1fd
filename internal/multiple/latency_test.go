package multiple

import (
	"math/rand"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/tree"
)

func TestMinimizeLatencyImproves(t *testing.T) {
	// Root and hub both replicas; a bad-but-feasible hand assignment
	// sends everything to the far root. MinimizeLatency must pull the
	// flows down to the hub.
	b := tree.NewBuilder()
	root := b.Root("root")
	hub := b.Internal(root, 5, "hub")
	c1 := b.Client(hub, 1, 4, "c1")
	c2 := b.Client(hub, 1, 3, "c2")
	c3 := b.Client(root, 1, 6, "c3")
	in := &core.Instance{Tree: b.MustBuild(), W: 10, DMax: core.NoDistance}

	// Feasible but latency-poor: c1 crosses the long edge to the root
	// (distance 6) although the hub (distance 1) has room.
	bad := &core.Solution{}
	bad.AddReplica(root)
	bad.AddReplica(hub)
	bad.Assign(c1, root, 4)
	bad.Assign(c2, hub, 3)
	bad.Assign(c3, root, 6)
	bad.Normalize()
	if err := core.Verify(in, core.Multiple, bad); err != nil {
		t.Fatalf("setup: %v", err)
	}

	before := TotalDistance(in.Tree, bad)
	opt, err := MinimizeLatency(in, bad)
	if err != nil {
		t.Fatal(err)
	}
	after := TotalDistance(in.Tree, opt)
	if after > before {
		t.Fatalf("latency worsened: %d → %d", before, after)
	}
	// Optimal here: c1,c2 at hub (dist 1 each → 7), c3 at root
	// (dist 1 → 6): total 13.
	if after != 13 {
		t.Fatalf("total distance = %d, want 13", after)
	}
	if opt.NumReplicas() != bad.NumReplicas() {
		t.Fatal("replica set changed")
	}
}

func TestMinimizeLatencyRejectsInfeasible(t *testing.T) {
	b := tree.NewBuilder()
	r := b.Root("r")
	b.Client(r, 1, 5, "c")
	b.Client(r, 1, 1, "d")
	in := &core.Instance{Tree: b.MustBuild(), W: 10, DMax: core.NoDistance}
	if _, err := MinimizeLatency(in, &core.Solution{}); err == nil {
		t.Fatal("empty solution should be rejected")
	}
}

// TestMinimizeLatencyNeverWorsens: on random instances, re-routing
// keeps feasibility, the replica set, and never increases the total
// distance; with dmax it also never violates it (Verify checks).
func TestMinimizeLatencyNeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	improved := 0
	for trial := 0; trial < 120; trial++ {
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    2 + rng.Intn(6),
			MaxArity:     2 + rng.Intn(3),
			MaxDist:      4,
			MaxReq:       9,
			ExtraClients: rng.Intn(4),
		}, trial%2 == 0)
		sol, err := solve(t, in, (*Session).Greedy)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		opt, err := MinimizeLatency(in, sol)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		before, after := TotalDistance(in.Tree, sol), TotalDistance(in.Tree, opt)
		if after > before {
			t.Fatalf("trial %d: %d → %d", trial, before, after)
		}
		if after < before {
			improved++
		}
		if opt.NumReplicas() != sol.NumReplicas() {
			t.Fatalf("trial %d: replica count changed", trial)
		}
	}
	if improved == 0 {
		t.Fatal("MinimizeLatency never improved anything across 120 trials — suspicious")
	}
}

func TestTotalDistance(t *testing.T) {
	b := tree.NewBuilder()
	r := b.Root("r")
	c := b.Client(r, 3, 4, "c")
	tr := b.MustBuild()
	sol := &core.Solution{}
	sol.AddReplica(r)
	sol.Assign(c, r, 4)
	if got := TotalDistance(tr, sol); got != 12 {
		t.Fatalf("TotalDistance = %d, want 12", got)
	}
}
