package lp

import (
	"math/rand"
	"slices"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
)

func sessionSolEqual(a, b *core.Solution) bool {
	return slices.Equal(a.Replicas, b.Replicas) && slices.Equal(a.Assignments, b.Assignments)
}

// TestWorkspaceSolveMatchesSolve pins that the workspace simplex and
// the throwaway simplex agree bit-for-bit.
func TestWorkspaceSolveMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	var w Workspace
	for i := 0; i < 40; i++ {
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals: 1 + rng.Intn(10),
			MaxArity:  2 + rng.Intn(2),
		}, rng.Intn(2) == 0)
		p, _, _, err := buildPlacement(in)
		if err != nil || p == nil {
			continue
		}
		xCold, objCold, errCold := Solve(p)
		xWarm, objWarm, errWarm := w.Solve(p)
		if (errCold == nil) != (errWarm == nil) {
			t.Fatalf("instance %d: cold err %v, warm err %v", i, errCold, errWarm)
		}
		if errCold != nil {
			continue
		}
		if objCold != objWarm {
			t.Fatalf("instance %d: objective %v != %v", i, objCold, objWarm)
		}
		if !slices.Equal(xCold, xWarm) {
			t.Fatalf("instance %d: solutions differ", i)
		}
	}
}

// TestLPSessionMatchesCold pins the warm Placement contract.
func TestLPSessionMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var s Session
	for i := 0; i < 40; i++ {
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    1 + rng.Intn(8),
			MaxArity:     2 + rng.Intn(2),
			MaxDist:      3,
			MaxReq:       6,
			ExtraClients: rng.Intn(3),
		}, rng.Intn(2) == 0)
		if err := s.Reset(in); err != nil {
			t.Fatalf("instance %d: ingest: %v", i, err)
		}
		for round := 0; round < 2; round++ {
			cold, coldErr := Placement(in)
			warm, warmErr := s.Placement()
			if (coldErr == nil) != (warmErr == nil) {
				t.Fatalf("instance %d: cold err %v, warm err %v", i, coldErr, warmErr)
			}
			if coldErr == nil && !sessionSolEqual(cold, warm) {
				t.Fatalf("instance %d:\n cold %v\n warm %v", i, cold, warm)
			}
		}
	}
}

// TestLPSessionAllocFree pins the tentpole invariant: warm Placement
// allocates nothing.
func TestLPSessionAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 10, MaxArity: 3}, true)
	var s Session
	if err := s.Reset(in); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Placement(); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := s.Placement(); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm Placement allocated %.1f times per run", avg)
	}
}

// BenchmarkLPRound is the lp-round engine's work on a solve-cold
// request: Reset, Placement and Release on a fresh session each op, as
// the pooled engine runs it, cycling through the solve-cold-shaped set.
func BenchmarkLPRound(b *testing.B) {
	ins := coldSet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s Session
		if err := s.Reset(ins[i%len(ins)]); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Placement(); err != nil {
			b.Fatal(err)
		}
		s.Release()
	}
}

// TestWorkspacePoolCap pins that a workspace whose tableau exceeds
// maxPooledTableau is dropped instead of pooled.
func TestWorkspacePoolCap(t *testing.T) {
	big := &Workspace{tabBuf: make([]float64, 0, maxPooledTableau/8+1)}
	putWorkspace(big)
	for i := 0; i < 4; i++ {
		if getWorkspace() == big {
			t.Fatal("an oversized workspace was pooled")
		}
	}
}
