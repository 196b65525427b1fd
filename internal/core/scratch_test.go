package core_test

import (
	"errors"
	"math/rand"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/tree"
)

func randInstance(rng *rand.Rand) *core.Instance {
	return gen.RandomInstance(rng, gen.TreeConfig{
		Internals:    1 + rng.Intn(25),
		MaxArity:     2 + rng.Intn(3),
		MaxDist:      4,
		MaxReq:       9,
		ExtraClients: rng.Intn(5),
	}, rng.Intn(2) == 0)
}

func TestScratchLowerBoundMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var sc core.Scratch
	for i := 0; i < 200; i++ {
		in := randInstance(rng)
		want := referenceLowerBound(in)
		if got := sc.LowerBound(in); got != want {
			t.Fatalf("instance %d: scratch bound %d != reference bound %d", i, got, want)
		}
		if got := core.LowerBound(in); got != want {
			t.Fatalf("instance %d: bound %d != reference bound %d", i, got, want)
		}
	}
	// Binary, arity-4, star and caterpillar trees under dmax 0, small,
	// huge and NoDistance, a third of them with edge lengths near
	// tree.Infinity, so that root distances overflow int64 and the
	// reference's saturating sums are what the bound must agree with.
	dmaxes := []func() int64{
		func() int64 { return 0 },
		func() int64 { return rng.Int63n(12) },
		func() int64 { return tree.Infinity - 1 - rng.Int63n(1<<40) },
		func() int64 { return core.NoDistance },
	}
	for i := 0; i < 1600; i++ {
		f := gen.ShapedTree(rng, gen.Shapes[i%len(gen.Shapes)], 1+rng.Intn(30), 4, 9)
		if i/len(gen.Shapes)%3 == 0 {
			for j := range f.EdgeLens {
				if j != int(f.Root()) && rng.Intn(2) == 0 {
					f.EdgeLens[j] = tree.Infinity/2 + rng.Int63n(tree.Infinity/2)
				}
			}
		}
		in := &core.Instance{Tree: f, W: 1 + rng.Int63n(12), DMax: dmaxes[i/len(gen.Shapes)/3%len(dmaxes)]()}
		want := referenceLowerBound(in)
		if got := sc.LowerBound(in); got != want {
			t.Fatalf("shaped %d (dmax %d): scratch bound %d != reference bound %d", i, in.DMax, got, want)
		}
	}
}

func TestScratchVerifyMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var sc core.Scratch
	for i := 0; i < 100; i++ {
		in := randInstance(rng)
		sol := core.Trivial(in)
		if sol == nil {
			continue
		}
		for _, pol := range []core.Policy{core.Single, core.Multiple} {
			ref := referenceVerify(in, pol, sol)
			warm := sc.Verify(in, pol, sol)
			if (ref == nil) != (warm == nil) {
				t.Fatalf("instance %d pol %v: reference=%v scratch=%v", i, pol, ref, warm)
			}
		}
	}
}

func TestScratchVerifyRejections(t *testing.T) {
	b := tree.NewBuilder()
	r := b.Root("")
	n1 := b.Internal(r, 1, "")
	c1 := b.Client(n1, 2, 5, "")
	c2 := b.Client(n1, 3, 4, "")
	tr := b.MustBuild()
	in := &core.Instance{Tree: tr, W: 10, DMax: 3}
	var sc core.Scratch

	cases := []struct {
		name string
		sol  core.Solution
		pol  core.Policy
		want error
	}{
		{"non-replica server", core.Solution{
			Replicas:    []tree.NodeID{c1},
			Assignments: []core.Assignment{{Client: c1, Server: c1, Amount: 5}, {Client: c2, Server: n1, Amount: 4}},
		}, core.Multiple, core.ErrStructure},
		{"duplicate replica", core.Solution{
			Replicas: []tree.NodeID{c1, c1},
		}, core.Multiple, core.ErrStructure},
		{"off-path server", core.Solution{
			Replicas:    []tree.NodeID{c1, c2},
			Assignments: []core.Assignment{{Client: c1, Server: c1, Amount: 5}, {Client: c2, Server: c1, Amount: 4}},
		}, core.Multiple, core.ErrDistance},
		{"too far", core.Solution{
			Replicas:    []tree.NodeID{r},
			Assignments: []core.Assignment{{Client: c1, Server: r, Amount: 5}, {Client: c2, Server: r, Amount: 4}},
		}, core.Multiple, core.ErrDistance},
		{"under-served", core.Solution{
			Replicas:    []tree.NodeID{n1},
			Assignments: []core.Assignment{{Client: c1, Server: n1, Amount: 4}, {Client: c2, Server: n1, Amount: 4}},
		}, core.Multiple, core.ErrCoverage},
		{"split under single", core.Solution{
			Replicas:    []tree.NodeID{n1, c1, c2},
			Assignments: []core.Assignment{{Client: c1, Server: n1, Amount: 3}, {Client: c1, Server: c1, Amount: 2}, {Client: c2, Server: c2, Amount: 4}},
		}, core.Single, core.ErrPolicy},
	}
	for _, tc := range cases {
		sol := tc.sol
		err := sc.Verify(in, tc.pol, &sol)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if ref := referenceVerify(in, tc.pol, &sol); ref == nil || ref.Error() != err.Error() {
			t.Errorf("%s: reference verify got %v, scratch %v", tc.name, ref, err)
		}
	}
}

func TestScratchVerifyCapacity(t *testing.T) {
	b := tree.NewBuilder()
	r := b.Root("")
	n1 := b.Internal(r, 1, "")
	c1 := b.Client(n1, 2, 5, "")
	c2 := b.Client(n1, 3, 4, "")
	tr := b.MustBuild()
	in := &core.Instance{Tree: tr, W: 8, DMax: 3}
	var sc core.Scratch
	sol := &core.Solution{
		Replicas:    []tree.NodeID{n1},
		Assignments: []core.Assignment{{Client: c1, Server: n1, Amount: 5}, {Client: c2, Server: n1, Amount: 4}},
	}
	if err := sc.Verify(in, core.Multiple, sol); !errors.Is(err, core.ErrCapacity) {
		t.Fatalf("got %v, want ErrCapacity", err)
	}
}

func TestScratchAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 40, MaxArity: 3}, true)
	sol := core.Trivial(in)
	if sol == nil {
		t.Skip("instance does not fit locally")
	}
	var sc core.Scratch
	sc.LowerBound(in)
	if err := sc.Verify(in, core.Multiple, sol); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		sc.LowerBound(in)
		if err := sc.Verify(in, core.Multiple, sol); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm scratch helpers allocated %.1f times per run", avg)
	}
}

func TestNormalizeAllocFree(t *testing.T) {
	sol := &core.Solution{
		Replicas: []tree.NodeID{5, 3, 3, 1},
		Assignments: []core.Assignment{
			{Client: 4, Server: 3, Amount: 2},
			{Client: 2, Server: 1, Amount: 1},
			{Client: 4, Server: 3, Amount: 3},
		},
	}
	sol.Normalize()
	if len(sol.Replicas) != 3 || len(sol.Assignments) != 2 {
		t.Fatalf("unexpected normalize result: %v", sol)
	}
	if sol.Assignments[1].Amount != 5 {
		t.Fatalf("duplicate assignments not merged: %v", sol.Assignments)
	}
	avg := testing.AllocsPerRun(50, func() {
		sol.Assignments = append(sol.Assignments[:0],
			core.Assignment{Client: 4, Server: 3, Amount: 2},
			core.Assignment{Client: 2, Server: 1, Amount: 1},
			core.Assignment{Client: 4, Server: 3, Amount: 3},
		)
		sol.Replicas = append(sol.Replicas[:0], 5, 3, 3, 1)
		sol.Normalize()
	})
	if avg != 0 {
		t.Fatalf("Normalize allocated %.1f times per run", avg)
	}
}
