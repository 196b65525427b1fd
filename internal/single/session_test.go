package single

import (
	"math/rand"
	"slices"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/tree"
)

func solutionsEqual(a, b *core.Solution) bool {
	return slices.Equal(a.Replicas, b.Replicas) && slices.Equal(a.Assignments, b.Assignments)
}

func sessionInstance(rng *rand.Rand) *core.Instance {
	return gen.RandomInstance(rng, gen.TreeConfig{
		Internals:    1 + rng.Intn(30),
		MaxArity:     2 + rng.Intn(3),
		MaxDist:      4,
		MaxReq:       8,
		ExtraClients: rng.Intn(6),
	}, rng.Intn(2) == 0)
}

// TestSessionMatchesCold pins the warm-path contract: a Session solve
// returns exactly the normalized solution of the package-level
// functions, on many random instances and repeatedly on the same
// session.
func TestSessionMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var s Session
	for i := 0; i < 200; i++ {
		in := sessionInstance(rng)
		s.Reset(in)
		for round := 0; round < 2; round++ {
			cold, coldErr := Gen(in)
			warm, warmErr := s.Gen()
			if (coldErr == nil) != (warmErr == nil) {
				t.Fatalf("instance %d: gen cold err %v, warm err %v", i, coldErr, warmErr)
			}
			if coldErr == nil && !solutionsEqual(cold, warm) {
				t.Fatalf("instance %d: gen cold %v != warm %v", i, cold, warm)
			}
			coldN, coldErrN := NoD(in)
			warmN, warmErrN := s.NoD()
			if (coldErrN == nil) != (warmErrN == nil) {
				t.Fatalf("instance %d: nod cold err %v, warm err %v", i, coldErrN, warmErrN)
			}
			if coldErrN == nil && !solutionsEqual(coldN, warmN) {
				t.Fatalf("instance %d: nod cold %v != warm %v", i, coldN, warmN)
			}
		}
	}
}

// TestSessionInfeasible mirrors the cold error when a client exceeds W.
func TestSessionInfeasible(t *testing.T) {
	b := tree.NewBuilder()
	r := b.Root("")
	b.Client(r, 1, 10, "")
	b.Client(r, 1, 2, "")
	in := &core.Instance{Tree: b.MustBuild(), W: 5, DMax: core.NoDistance}
	var s Session
	s.Reset(in)
	if _, err := s.Gen(); err == nil {
		t.Fatal("warm gen accepted an infeasible instance")
	}
	if _, err := s.NoD(); err == nil {
		t.Fatal("warm nod accepted an infeasible instance")
	}
}

// TestSessionAllocFree pins the tentpole invariant at the package
// level: warm Gen and NoD allocate nothing.
func TestSessionAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 60, MaxArity: 3, ExtraClients: 20}, true)
	var s Session
	s.Reset(in)
	if _, err := s.Gen(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.NoD(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := s.Gen(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm Gen allocated %.1f times per run", avg)
	}
	avg = testing.AllocsPerRun(50, func() {
		if _, err := s.NoD(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm NoD allocated %.1f times per run", avg)
	}
}
