package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/exact"
	"replicatree/internal/gen"
	"replicatree/internal/tree"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSimplexBasicLE(t *testing.T) {
	// max x+y s.t. x+2y ≤ 4, 3x+y ≤ 6  → min −x−y; optimum at
	// (8/5, 6/5), objective 14/5.
	p := fromDense(&denseProblem{
		C:    []float64{-1, -1},
		A:    [][]float64{{1, 2}, {3, 1}},
		B:    []float64{4, 6},
		Kind: []RowKind{LE, LE},
	})
	x, obj, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(obj, -2.8) {
		t.Fatalf("obj = %v, want -2.8", obj)
	}
	if !almost(x[0], 1.6) || !almost(x[1], 1.2) {
		t.Fatalf("x = %v", x)
	}
}

func TestSimplexEquality(t *testing.T) {
	// min x+y s.t. x+y = 3, x ≤ 2 → obj 3.
	p := fromDense(&denseProblem{
		C:    []float64{1, 1},
		A:    [][]float64{{1, 1}, {1, 0}},
		B:    []float64{3, 2},
		Kind: []RowKind{EQ, LE},
	})
	_, obj, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(obj, 3) {
		t.Fatalf("obj = %v, want 3", obj)
	}
}

func TestSimplexGE(t *testing.T) {
	// min 2x+3y s.t. x+y ≥ 4, x ≤ 3 → y ≥ 1; optimum x=3, y=1, obj 9.
	p := fromDense(&denseProblem{
		C:    []float64{2, 3},
		A:    [][]float64{{1, 1}, {1, 0}},
		B:    []float64{4, 3},
		Kind: []RowKind{GE, LE},
	})
	x, obj, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(obj, 9) || !almost(x[0], 3) || !almost(x[1], 1) {
		t.Fatalf("x=%v obj=%v", x, obj)
	}
}

func TestSimplexNegativeB(t *testing.T) {
	// min x s.t. −x ≤ −2 (i.e. x ≥ 2) → obj 2.
	p := fromDense(&denseProblem{
		C:    []float64{1},
		A:    [][]float64{{-1}},
		B:    []float64{-2},
		Kind: []RowKind{LE},
	})
	_, obj, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(obj, 2) {
		t.Fatalf("obj = %v, want 2", obj)
	}
}

func TestSimplexInfeasible(t *testing.T) {
	// x ≤ 1 and x ≥ 2.
	p := fromDense(&denseProblem{
		C:    []float64{1},
		A:    [][]float64{{1}, {1}},
		B:    []float64{1, 2},
		Kind: []RowKind{LE, GE},
	})
	if _, _, err := Solve(p); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
}

func TestSimplexUnbounded(t *testing.T) {
	// min −x with x free upward: −x → −∞.
	p := fromDense(&denseProblem{
		C:    []float64{-1},
		A:    [][]float64{{0}},
		B:    []float64{1},
		Kind: []RowKind{LE},
	})
	if _, _, err := Solve(p); !errors.Is(err, ErrUnbounded) {
		t.Fatalf("want ErrUnbounded, got %v", err)
	}
}

func TestSimplexDimensionErrors(t *testing.T) {
	p := &Problem{C: []float64{1}, Start: []int{0, 2}, Col: []int{0, 1}, Val: []float64{1, 2}, B: []float64{1}, Kind: []RowKind{LE}}
	if _, _, err := Solve(p); err == nil {
		t.Fatal("row width mismatch should fail")
	}
	p2 := &Problem{C: []float64{1}, Start: []int{0, 1}, Col: []int{0}, Val: []float64{1}, B: []float64{1, 2}, Kind: []RowKind{LE}}
	if _, _, err := Solve(p2); err == nil {
		t.Fatal("b length mismatch should fail")
	}
}

func TestFractionalReplicasToy(t *testing.T) {
	// Two clients of 5 under one hub, W = 10, NoD: one replica
	// fractionally (and integrally) suffices: LP = 1.
	b := tree.NewBuilder()
	root := b.Root("r")
	hub := b.Internal(root, 1, "hub")
	b.Client(hub, 1, 5, "c1")
	b.Client(hub, 1, 5, "c2")
	in := &core.Instance{Tree: b.MustBuild(), W: 10, DMax: core.NoDistance}
	obj, err := FractionalReplicas(in)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(obj, 1) {
		t.Fatalf("LP = %v, want 1", obj)
	}
	lb, err := LowerBound(in)
	if err != nil || lb != 1 {
		t.Fatalf("LowerBound = %d, %v", lb, err)
	}
}

func TestFractionalIsBetweenVolumeAndOpt(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for trial := 0; trial < 80; trial++ {
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    1 + rng.Intn(4),
			MaxArity:     2 + rng.Intn(3),
			MaxDist:      3,
			MaxReq:       9,
			ExtraClients: rng.Intn(3),
		}, trial%2 == 0)
		lb, err := LowerBound(in)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		opt, err := exact.SolveMultiple(in, exact.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if lb > opt.NumReplicas() {
			t.Fatalf("trial %d: LP bound %d exceeds optimum %d\n%s W=%d dmax=%d",
				trial, lb, opt.NumReplicas(), in.Tree, in.W, in.DMax)
		}
		if lb < core.VolumeLowerBound(in) {
			t.Fatalf("trial %d: LP bound %d below volume bound %d", trial, lb, core.VolumeLowerBound(in))
		}
	}
}

func TestFractionalDetectsInfeasible(t *testing.T) {
	// dmax = 0 and a client bigger than W: nothing can serve it.
	b := tree.NewBuilder()
	root := b.Root("r")
	b.Client(root, 1, 12, "big")
	b.Client(root, 1, 1, "small")
	in := &core.Instance{Tree: b.MustBuild(), W: 5, DMax: 0}
	if _, err := FractionalReplicas(in); err == nil {
		t.Fatal("expected infeasible relaxation")
	}
}

func TestFractionalZeroRequests(t *testing.T) {
	b := tree.NewBuilder()
	root := b.Root("r")
	b.Client(root, 1, 0, "idle")
	b.Client(root, 1, 0, "idle2")
	in := &core.Instance{Tree: b.MustBuild(), W: 5, DMax: core.NoDistance}
	obj, err := FractionalReplicas(in)
	if err != nil || obj != 0 {
		t.Fatalf("obj=%v err=%v", obj, err)
	}
}
