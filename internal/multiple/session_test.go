package multiple

import (
	"math/rand"
	"slices"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/tree"
)

func sessionSolEqual(a, b *core.Solution) bool {
	return slices.Equal(a.Replicas, b.Replicas) && slices.Equal(a.Assignments, b.Assignments)
}

func sessionInstance(rng *rand.Rand, binary bool) *core.Instance {
	cfg := gen.TreeConfig{
		Internals:    1 + rng.Intn(25),
		MaxArity:     2 + rng.Intn(3),
		MaxDist:      4,
		MaxReq:       8,
		ExtraClients: rng.Intn(5),
	}
	if binary {
		cfg.MaxArity = 2
		cfg.ExtraClients = 0
	}
	in := gen.RandomInstance(rng, cfg, rng.Intn(2) == 0)
	// Keep ri ≤ W so the preconditions hold on most draws.
	if in.W < in.Tree.MaxRequests() {
		in.W = in.Tree.MaxRequests()
	}
	return in
}

// TestMultipleSessionMatchesCold pins the warm-path contract for all
// four variants against the package-level functions.
func TestMultipleSessionMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var s Session
	for i := 0; i < 200; i++ {
		binary := i%2 == 0
		in := sessionInstance(rng, binary)
		s.Reset(in)
		type variant struct {
			name string
			cold func(*core.Instance) (*core.Solution, error)
			warm func() (*core.Solution, error)
		}
		variants := []variant{
			{"greedy", Greedy, s.Greedy},
			{"lazy", Lazy, s.Lazy},
			{"best", Best, s.Best},
		}
		if binary {
			variants = append(variants, variant{"bin", Bin, s.Bin})
		}
		for round := 0; round < 2; round++ {
			for _, v := range variants {
				cold, coldErr := v.cold(in)
				warm, warmErr := v.warm()
				if (coldErr == nil) != (warmErr == nil) {
					t.Fatalf("instance %d %s: cold err %v, warm err %v", i, v.name, coldErr, warmErr)
				}
				if coldErr == nil && !sessionSolEqual(cold, warm) {
					t.Fatalf("instance %d %s:\n cold %v\n warm %v", i, v.name, cold, warm)
				}
			}
		}
	}
}

// TestMultipleSessionPreconditions mirrors the cold errors.
func TestMultipleSessionPreconditions(t *testing.T) {
	b := tree.NewBuilder()
	r := b.Root("")
	n1 := b.Internal(r, 1, "")
	b.Client(n1, 1, 9, "")
	b.Client(n1, 1, 2, "")
	b.Client(r, 1, 3, "")
	in := &core.Instance{Tree: b.MustBuild(), W: 5, DMax: core.NoDistance}
	var s Session
	s.Reset(in)
	if _, err := s.Greedy(); err == nil {
		t.Fatal("warm Greedy accepted r > W")
	}
	if _, err := s.Bin(); err == nil {
		t.Fatal("warm Bin accepted r > W")
	}

	// Ternary root: Bin must refuse, Greedy must accept.
	b2 := tree.NewBuilder()
	r2 := b2.Root("")
	b2.Client(r2, 1, 2, "")
	b2.Client(r2, 1, 2, "")
	b2.Client(r2, 1, 2, "")
	in2 := &core.Instance{Tree: b2.MustBuild(), W: 5, DMax: core.NoDistance}
	s.Reset(in2)
	if _, err := s.Bin(); err == nil {
		t.Fatal("warm Bin accepted a ternary tree")
	}
	if _, err := s.Greedy(); err != nil {
		t.Fatalf("warm Greedy refused a valid instance: %v", err)
	}
}

// TestMultipleSessionAllocFree pins the tentpole invariant: warm
// Greedy/Lazy/Best/Bin allocate nothing.
func TestMultipleSessionAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 60, MaxArity: 2}, true)
	if in.W < in.Tree.MaxRequests() {
		in.W = in.Tree.MaxRequests()
	}
	var s Session
	s.Reset(in)
	for name, warm := range map[string]func() (*core.Solution, error){
		"bin": s.Bin, "greedy": s.Greedy, "lazy": s.Lazy, "best": s.Best,
	} {
		if _, err := warm(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		avg := testing.AllocsPerRun(50, func() {
			if _, err := warm(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		})
		if avg != 0 {
			t.Fatalf("warm %s allocated %.1f times per run", name, avg)
		}
	}
}
