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
	"replicatree/internal/exact"
	"replicatree/internal/gen"
	"replicatree/internal/tree"
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

// route, drop and clearServerNodes give TestPruneMatchesFresh the
// session's prune steps, which run on its exact.Transport: Route and
// Drop, and no clearing step, since each build clears the last set's
// marks itself.
func (s *Session) route(R []tree.NodeID) bool { return s.net.Route(R) }
func (s *Session) drop(srv tree.NodeID) bool  { return s.net.Drop(srv) }
func (s *Session) clearServerNodes()          {}

// TestPruneMatchesFresh pins the incremental prune against a fresh
// feasibility test: on random instances and the solve-cold set, from
// the relaxation's support and from every candidate server, each drop
// verdict equals exact.MultipleFeasible on the set without that
// server.
func TestPruneMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(2001))
	var ins []*core.Instance
	for i := 0; i < 60; i++ {
		ins = append(ins, gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    1 + rng.Intn(10),
			MaxArity:     2 + rng.Intn(2),
			MaxDist:      3,
			MaxReq:       8,
			ExtraClients: rng.Intn(3),
		}, rng.Intn(2) == 0))
	}
	ins = append(ins, coldSet()[:8]...)
	var s Session
	defer s.Release()
	steps, kept := 0, 0
	for n, in := range ins {
		if err := s.Reset(in); err != nil || s.empty {
			continue
		}
		if err := s.relax(); err != nil {
			t.Fatalf("instance %d: %v", n, err)
		}
		support := slices.Clone(s.R)
		for _, start := range [][]tree.NodeID{support, s.servers} {
			R := slices.Clone(start)
			if got, want := s.route(R), exact.MultipleFeasible(in, R); got != want {
				t.Fatalf("instance %d: route(%v) = %v, fresh %v", n, R, got, want)
			} else if !got {
				continue
			}
			for i := 0; i < len(R); {
				trial := slices.Delete(slices.Clone(R), i, i+1)
				want := exact.MultipleFeasible(in, trial)
				if got := s.drop(R[i]); got != want {
					t.Fatalf("instance %d: drop %d from %v = %v, fresh %v", n, R[i], R, got, want)
				}
				steps++
				if want {
					R = trial
				} else {
					kept++
					i++
				}
			}
			s.clearServerNodes()
		}
	}
	if steps < 1000 || kept == 0 || kept == steps {
		t.Fatalf("only %d prune steps (%d kept): the test lost its coverage", steps, kept)
	}
}

// FuzzPlacement compares Session.Placement with the reference rounding
// on fuzzer-built instances: the same solution or the same error text.
// The bytes are read as: the internal node count, per internal node
// after the root its parent and edge length, the client count, per
// client its parent, edge length and requests, then W and dmax (a
// first byte below 64 means no distance bound). Missing bytes read as
// zero.
func FuzzPlacement(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 2, 4, 1, 1, 3, 2, 2, 5, 0, 1, 2, 1, 3, 1, 6, 200, 4})
	f.Add([]byte{1, 3, 0, 1, 9, 0, 1, 9, 0, 2, 4, 5, 10})
	f.Add([]byte{5, 0, 1, 1, 1, 2, 2, 0, 3, 9, 4, 1, 7, 3, 2, 2, 0, 1, 1, 1, 3, 6, 2, 1, 5, 4, 2, 8, 0, 4, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		b := tree.NewBuilder()
		internals := []tree.NodeID{b.Root("")}
		for k := 1 + next()%8; len(internals) < k; {
			p := internals[next()%len(internals)]
			internals = append(internals, b.Internal(p, int64(1+next()%4), ""))
		}
		for c := 1 + next()%14; c > 0; c-- {
			p := internals[next()%len(internals)]
			b.Client(p, int64(1+next()%4), int64(next()%10), "")
		}
		tr, err := b.Build()
		if err != nil {
			return
		}
		in := &core.Instance{Tree: tr, W: int64(next() % 16), DMax: core.NoDistance}
		if v := next(); v >= 64 {
			in.DMax = int64(next() % 12)
		}
		want, wantErr := referencePlacement(in)
		var s Session
		defer s.Release()
		if err := s.Reset(in); err != nil {
			sameOutcome(t, "ingest", want, wantErr, nil, err)
			return
		}
		got, gotErr := s.Placement()
		sameOutcome(t, "placement", want, wantErr, got, gotErr)
	})
}
