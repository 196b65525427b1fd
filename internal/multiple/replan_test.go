package multiple

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/single"
	"replicatree/internal/tree"
)

// scaleDemand rebuilds the instance's tree with every request
// multiplied by num/den.
func scaleDemand(in *core.Instance, num, den int64) *core.Instance {
	b := tree.NewBuilder()
	t := in.Tree
	ids := make(map[tree.NodeID]tree.NodeID)
	ids[t.Root()] = b.Root(t.Label(t.Root()))
	t.PreOrder(func(j tree.NodeID) {
		if j == t.Root() {
			return
		}
		p := ids[t.Parent(j)]
		if t.IsClient(j) {
			ids[j] = b.Client(p, t.Dist(j), t.Requests(j)*num/den, t.Label(j))
		} else {
			ids[j] = b.Internal(p, t.Dist(j), t.Label(j))
		}
	})
	return &core.Instance{Tree: b.MustBuild(), W: in.W, DMax: in.DMax}
}

func TestPlanDelta(t *testing.T) {
	b := tree.NewBuilder()
	root := b.Root("r")
	hub := b.Internal(root, 1, "hub")
	c1 := b.Client(hub, 1, 5, "c1")
	c2 := b.Client(hub, 1, 5, "c2")
	b.MustBuild()

	old := &core.Solution{}
	old.AddReplica(hub)
	old.Assign(c1, hub, 5)
	old.Assign(c2, hub, 5)
	old.Normalize()

	nw := &core.Solution{}
	nw.AddReplica(hub)
	nw.AddReplica(root)
	nw.Assign(c1, hub, 5)
	nw.Assign(c2, root, 5)
	nw.Normalize()

	ch := PlanDelta(old, nw)
	if len(ch.Added) != 1 || ch.Added[0] != root {
		t.Fatalf("Added = %v", ch.Added)
	}
	if len(ch.Removed) != 0 {
		t.Fatalf("Removed = %v", ch.Removed)
	}
	if ch.MovedRequests != 5 {
		t.Fatalf("MovedRequests = %d, want 5 (c2 moved)", ch.MovedRequests)
	}
	// Identical plans: zero churn.
	zero := PlanDelta(nw, nw)
	if len(zero.Added)+len(zero.Removed) != 0 || zero.MovedRequests != 0 {
		t.Fatalf("self delta non-zero: %+v", zero)
	}
}

// TestPlanDeltaMatchesReference pins the linear merge to the map
// oracle on random normalized pairs (sharing replicas and
// (client, server) pairs often), on nil and empty solutions, and on
// the consecutive answers of a Single placement whose requests keep
// changing, the churn an instance session reports.
func TestPlanDeltaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	random := func() *core.Solution {
		s := &core.Solution{}
		n := 1 + rng.Intn(12)
		for k := rng.Intn(6); k > 0; k-- {
			s.Replicas = append(s.Replicas, tree.NodeID(rng.Intn(n)))
		}
		for k := rng.Intn(10); k > 0 && len(s.Replicas) > 0; k-- {
			s.Assignments = append(s.Assignments, core.Assignment{
				Client: tree.NodeID(rng.Intn(n)),
				Server: s.Replicas[rng.Intn(len(s.Replicas))],
				Amount: rng.Int63n(4),
			})
		}
		s.Normalize()
		return s
	}
	var sols []*core.Solution
	for i := 0; i < 300; i++ {
		sols = append(sols, random())
	}
	sols = append(sols, nil, &core.Solution{}, &core.Solution{Replicas: []tree.NodeID{}, Assignments: []core.Assignment{}})

	// Consecutive Single answers under request edits, edited in place
	// as an instance session edits its tree.
	in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 10, MaxArity: 3, MaxDist: 4, MaxReq: 9}, true)
	clients := in.Tree.Clients()
	var sess single.Session
	sess.Reset(in)
	var steps []*core.Solution
	for step := 0; step < 30; step++ {
		in.Tree.Reqs[clients[rng.Intn(len(clients))]] = rng.Int63n(in.W + 1)
		sol, err := sess.Gen()
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, sol.Clone())
	}

	check := func(old, new *core.Solution) {
		t.Helper()
		got, want := PlanDelta(old, new), referencePlanDelta(old, new)
		if !slices.Equal(got.Added, want.Added) || !slices.Equal(got.Removed, want.Removed) ||
			(got.Added == nil) != (want.Added == nil) || (got.Removed == nil) != (want.Removed == nil) ||
			got.MovedRequests != want.MovedRequests {
			t.Fatalf("PlanDelta(%v, %v) = %+v, oracle %+v", old, new, got, want)
		}
	}
	for i := range sols {
		check(sols[i], sols[(i+1)%len(sols)])
		check(sols[i], sols[i])
		check(nil, sols[i])
		check(sols[i], nil)
	}
	check(nil, steps[0])
	for i := 1; i < len(steps); i++ {
		check(steps[i-1], steps[i])
	}
}

func TestReplanKeepsFeasibleSet(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	in := gen.RandomInstance(rng, gen.TreeConfig{
		Internals: 5, MaxArity: 2, MaxDist: 3, MaxReq: 9, ExtraClients: 3,
	}, false)
	old, err := Best(in)
	if err != nil {
		t.Fatal(err)
	}
	// Same instance: replan must keep a subset of the old replicas
	// (it may shrink but never add).
	sol, ch, err := Replan(in, old)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.Added) != 0 {
		t.Fatalf("replan on an unchanged instance added replicas: %+v", ch)
	}
	if sol.NumReplicas() > old.NumReplicas() {
		t.Fatalf("replan grew the plan: %d → %d", old.NumReplicas(), sol.NumReplicas())
	}
}

func TestReplanGrowsUnderDemandSurge(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 25; trial++ {
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals: 2 + rng.Intn(4), MaxArity: 2, MaxDist: 3, MaxReq: 6,
			ExtraClients: rng.Intn(3),
		}, false)
		old, err := Best(in)
		if err != nil {
			t.Fatal(err)
		}
		// Demand doubles; W stays. Every old client still fits one
		// server? Not necessarily — skip surge instances whose
		// doubled clients exceed W (Replan handles them via flow, but
		// Best for the gap comparison needs ri ≤ W).
		surged := scaleDemand(in, 2, 1)
		if !(&core.Instance{Tree: surged.Tree, W: surged.W, DMax: surged.DMax}).FitsLocally() {
			continue
		}
		sol, ch, err := Replan(surged, old)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := core.Verify(surged, core.Multiple, sol); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Fresh plan for the gap comparison: replan pays at most a
		// small stability premium.
		fresh, err := Best(surged)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.NumReplicas() < fresh.NumReplicas() {
			t.Fatalf("trial %d: replan beat Best — impossible given Best ≈ optimal", trial)
		}
		if sol.NumReplicas() > fresh.NumReplicas()+2 {
			t.Fatalf("trial %d: replan %d far above fresh %d", trial, sol.NumReplicas(), fresh.NumReplicas())
		}
		// Churn accounting is internally consistent.
		if len(ch.Added) > sol.NumReplicas() {
			t.Fatalf("trial %d: churn added %d > |R| %d", trial, len(ch.Added), sol.NumReplicas())
		}
	}
}

func TestReplanShrinksUnderDemandDrop(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	in := gen.RandomInstance(rng, gen.TreeConfig{
		Internals: 5, MaxArity: 2, MaxDist: 3, MaxReq: 8, ExtraClients: 4,
	}, false)
	old, err := Best(in)
	if err != nil {
		t.Fatal(err)
	}
	// Demand quarters: the old fleet is oversized.
	dropped := scaleDemand(in, 1, 4)
	sol, ch, err := Replan(dropped, old)
	if err != nil {
		t.Fatal(err)
	}
	if sol.NumReplicas() > old.NumReplicas() {
		t.Fatal("replan grew under a demand drop")
	}
	if len(ch.Added) != 0 {
		t.Fatalf("demand drop should not add replicas: %+v", ch.Added)
	}
}

func TestReplanInfeasible(t *testing.T) {
	b := tree.NewBuilder()
	r := b.Root("r")
	b.Client(r, 1, 12, "big")
	b.Client(r, 1, 1, "small")
	in := &core.Instance{Tree: b.MustBuild(), W: 5, DMax: 0}
	if _, _, err := Replan(in, &core.Solution{}); err == nil {
		t.Fatal("expected infeasibility")
	}
}

func TestReplanFromEmptyPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	in := gen.RandomInstance(rng, gen.TreeConfig{
		Internals: 4, MaxArity: 2, MaxDist: 3, MaxReq: 8, ExtraClients: 2,
	}, false)
	sol, ch, err := Replan(in, &core.Solution{})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(in, core.Multiple, sol); err != nil {
		t.Fatal(err)
	}
	if len(ch.Added) != sol.NumReplicas() {
		t.Fatalf("from empty: all %d replicas should count as added, got %d",
			sol.NumReplicas(), len(ch.Added))
	}
}

// TestReplanMatchesReference holds ReplanExcluding to the first body on
// 1,200 seeded instances over the four shapes, with and without a
// distance bound: the old plan is a solve of the instance at a
// different demand scale or a random node set (invalid IDs and
// duplicates included), and the excluded set is random. The same
// solution and churn, or the same error text.
func TestReplanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4301))
	replanned := 0
	for n := 0; n < 1200; n++ {
		tr := gen.ShapedTree(rng, gen.Shapes[n%len(gen.Shapes)], 1+rng.Intn(10), 3, 9)
		in := &core.Instance{Tree: tr, W: max(1, tr.MaxRequests()-2+rng.Int63n(6)), DMax: core.NoDistance}
		if n/len(gen.Shapes)%2 == 0 {
			in.DMax = rng.Int63n(7)
		}
		old := &core.Solution{}
		if n%3 == 0 {
			if sol, err := Greedy(scaleDemand(in, 1+rng.Int63n(3), 2)); err == nil {
				old = sol
			}
		} else {
			for k := rng.Intn(tr.Len()); k >= 0; k-- {
				old.Replicas = append(old.Replicas, tree.NodeID(rng.Intn(tr.Len()+2)-1))
			}
		}
		var excluded []tree.NodeID
		for k := rng.Intn(4); k > 0; k-- {
			excluded = append(excluded, tree.NodeID(rng.Intn(tr.Len()+2)-1))
		}
		got, gotChurn, gotErr := ReplanExcluding(in, old, excluded)
		want, wantChurn, wantErr := referenceReplanExcluding(in, old, excluded)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("case %d: error %v, reference %v", n, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotChurn, wantChurn) {
			t.Fatalf("case %d: %v %+v, reference %v %+v", n, got, gotChurn, want, wantChurn)
		}
		if gotErr == nil {
			replanned++
		}
	}
	if replanned < 600 || replanned == 1200 {
		t.Fatalf("%d of 1200 cases replanned: the sweep lost its coverage", replanned)
	}
}
