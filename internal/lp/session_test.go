package lp

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
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

// namedInstance is one row of a parity test.
type namedInstance struct {
	name string
	in   *core.Instance
}

// corpus loads every instance of the frozen testdata corpus.
func corpus(t *testing.T) []namedInstance {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var out []namedInstance
	for _, file := range files {
		if filepath.Base(file) == "manifest.json" {
			continue
		}
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		in := new(core.Instance)
		if err := json.Unmarshal(raw, in); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		out = append(out, namedInstance{filepath.Base(file), in})
	}
	if len(out) < 8 {
		t.Fatalf("corpus has only %d instances", len(out))
	}
	return out
}

// sameOutcome requires got to equal the oracle's outcome: the same
// error text, or the same normalized solution.
func sameOutcome(t *testing.T, label string, want *core.Solution, wantErr error, got *core.Solution, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: oracle err %v, got err %v", label, wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("%s: oracle err %q, got err %q", label, wantErr, gotErr)
		}
		return
	}
	if !sessionSolEqual(want, got) {
		t.Fatalf("%s:\n oracle %v\n got    %v", label, want, got)
	}
}

// TestLPSessionMatchesCold pins Session.Placement against the
// reference rounding: on 200 random instances, the whole testdata
// corpus, an invalid W and a Multiple-infeasible instance, the session
// returns the oracle's solution or error text, on ingest and on a warm
// re-solve.
func TestLPSessionMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var rows []namedInstance
	for i := 0; i < 200; i++ {
		rows = append(rows, namedInstance{fmt.Sprintf("random %d", i), gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    1 + rng.Intn(8),
			MaxArity:     2 + rng.Intn(2),
			MaxDist:      3,
			MaxReq:       6,
			ExtraClients: rng.Intn(3),
		}, rng.Intn(2) == 0)})
	}
	rows = append(rows, corpus(t)...)
	small := gen.RandomTree(rng, gen.TreeConfig{Internals: 3, MaxReq: 6})
	rows = append(rows,
		namedInstance{"W = 0", &core.Instance{Tree: small, W: 0, DMax: core.NoDistance}},
		namedInstance{"r > W, dmax 0", &core.Instance{Tree: small, W: small.MaxRequests() - 1, DMax: 0}},
	)
	var s Session
	defer s.Release()
	for _, row := range rows {
		want, wantErr := referencePlacement(row.in)
		if err := s.Reset(row.in); err != nil {
			sameOutcome(t, row.name+" ingest", want, wantErr, nil, err)
			continue
		}
		for round := 0; round < 2; round++ {
			got, gotErr := s.Placement()
			sameOutcome(t, fmt.Sprintf("%s round %d", row.name, round), want, wantErr, got, gotErr)
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
