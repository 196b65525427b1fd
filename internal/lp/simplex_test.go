package lp

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
)

// sameAsReference solves p with the dense reference simplex and with a
// warm workspace, and fails unless both return the same error, the
// same objective and x entries equal under == (bit-equal up to the
// sign of zero).
func sameAsReference(t *testing.T, w *Workspace, p *Problem, what string) {
	t.Helper()
	xRef, objRef, errRef := referenceSolve(toDense(p))
	x, obj, err := w.Solve(p)
	if fmt.Sprint(err) != fmt.Sprint(errRef) {
		t.Fatalf("%s: error %v, reference %v", what, err, errRef)
	}
	if err != nil {
		return
	}
	if obj != objRef {
		t.Fatalf("%s: objective %v, reference %v", what, obj, objRef)
	}
	if len(x) != len(xRef) {
		t.Fatalf("%s: %d variables, reference %d", what, len(x), len(xRef))
	}
	for j := range x {
		if x[j] != xRef[j] {
			t.Fatalf("%s: x[%d] = %v, reference %v", what, j, x[j], xRef[j])
		}
	}
}

// TestSimplexMatchesReferencePlacements runs both simplexes on the
// relaxations of many random placements.
func TestSimplexMatchesReferencePlacements(t *testing.T) {
	rng := rand.New(rand.NewSource(1803))
	var w Workspace
	for i := 0; i < 200; i++ {
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    1 + rng.Intn(12),
			MaxArity:     2 + rng.Intn(3),
			MaxDist:      1 + rng.Int63n(4),
			MaxReq:       1 + rng.Int63n(12),
			ExtraClients: rng.Intn(4),
		}, rng.Intn(3) > 0)
		p, _, _, err := buildPlacement(in)
		if err != nil || p == nil {
			continue
		}
		sameAsReference(t, &w, p, fmt.Sprintf("placement %d", i))
	}
	for i, in := range coldSet()[:4] {
		p, _, _, err := buildPlacement(in)
		if err != nil {
			t.Fatal(err)
		}
		sameAsReference(t, &w, p, fmt.Sprintf("solve-cold instance %d", i))
	}
}

// randomProblem builds a small problem with sparse rows of small
// integer coefficients, mixed row kinds and right-hand sides of both
// signs.
func randomProblem(rng *rand.Rand) *Problem {
	n := 1 + rng.Intn(8)
	m := rng.Intn(9)
	p := &Problem{C: make([]float64, n), Start: []int{0}}
	for j := range p.C {
		p.C[j] = float64(rng.Intn(7) - 1)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if rng.Intn(3) == 0 {
				p.Col = append(p.Col, j)
				p.Val = append(p.Val, float64(rng.Intn(11)-5))
			}
		}
		p.endRow(float64(rng.Intn(21)-10), []RowKind{LE, LE, LE, GE, GE, EQ}[rng.Intn(6)])
	}
	return p
}

// TestSimplexMatchesReferenceRandom runs both simplexes on small
// random problems, which reach the infeasible and unbounded exits and
// the negated rows that placements never have.
func TestSimplexMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1804))
	var w Workspace
	for i := 0; i < 5000; i++ {
		sameAsReference(t, &w, randomProblem(rng), fmt.Sprintf("problem %d", i))
	}
}

// FuzzSimplex compares the two simplexes on fuzzer-built problems.
// The bytes are read as: the column and row counts, the costs, then
// per row its kind, right-hand side and one byte per column, where a
// coefficient is zero unless the byte is at least 128. Missing bytes
// read as zero.
func FuzzSimplex(f *testing.F) {
	f.Add([]byte{1, 2, 3, 3, 0, 133, 128, 131, 0, 4, 138, 140})
	f.Add([]byte{2, 3, 1, 2, 3, 2, 5, 129, 0, 130, 1, 250, 200, 129, 140, 0, 3, 131, 0, 255})
	f.Add([]byte{0, 1, 7, 1, 200, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		n := 1 + next()%6
		m := next() % 7
		p := &Problem{C: make([]float64, n), Start: []int{0}}
		for j := range p.C {
			p.C[j] = float64(next()%9 - 4)
		}
		for i := 0; i < m; i++ {
			kind := RowKind(next() % 3)
			b := float64(next()%21 - 10)
			for j := 0; j < n; j++ {
				if v := next(); v >= 128 {
					p.Col = append(p.Col, j)
					p.Val = append(p.Val, float64(v%11-5))
				}
			}
			p.endRow(b, kind)
		}
		var w Workspace
		sameAsReference(t, &w, p, "fuzzed problem")
	})
}

// TestWorkspaceReuseAcrossShapes runs one workspace through large,
// small, infeasible, unbounded and large problems again, in that
// order, and pins every answer to the reference. A reused tableau is
// zeroed only where the previous solve's nonzero index marks it, and
// the infeasible and unbounded solves leave it mid-pivot, so a stale
// entry would show in the next answer.
func TestWorkspaceReuseAcrossShapes(t *testing.T) {
	cold := coldSet()
	placement := func(in *core.Instance) *Problem {
		p, _, _, err := buildPlacement(in)
		if err != nil || p == nil {
			t.Fatalf("placement: %v", err)
		}
		return p
	}
	large, large2 := placement(cold[0]), placement(cold[1])
	small := placement(cold[2])
	small.B = slices.Clone(small.B)
	small.Start, small.B, small.Kind = small.Start[:31], small.B[:30], small.Kind[:30]
	small.Col, small.Val = small.Col[:small.Start[30]], small.Val[:small.Start[30]]

	// No server may open (every y ≤ 0): the coverage rows fail.
	_, servers, _, _ := buildPlacement(cold[3])
	infeasible := placement(cold[3])
	infeasible.B = slices.Clone(infeasible.B)
	for k := len(infeasible.B) - len(servers); k < len(infeasible.B); k++ {
		infeasible.B[k] = 0
	}
	// The first server's y ≤ 1 becomes y ≥ 1 at cost −1.
	_, servers, nx, _ := buildPlacement(cold[4])
	unbounded := placement(cold[4])
	unbounded.C = slices.Clone(unbounded.C)
	unbounded.Kind = slices.Clone(unbounded.Kind)
	unbounded.C[nx] = -1
	unbounded.Kind[len(unbounded.Kind)-len(servers)] = GE

	var w Workspace
	for _, step := range []struct {
		name string
		p    *Problem
		err  error
	}{
		{"large", large, nil},
		{"small", small, nil},
		{"infeasible", infeasible, ErrInfeasible},
		{"unbounded", unbounded, ErrUnbounded},
		{"large again", large2, nil},
		{"small again", small, nil},
		{"unbounded again", unbounded, ErrUnbounded},
		{"large once more", large, nil},
	} {
		if _, _, err := Solve(step.p); err != step.err {
			t.Fatalf("%s: fresh solve error %v, want %v", step.name, err, step.err)
		}
		sameAsReference(t, &w, step.p, step.name)
	}
}
