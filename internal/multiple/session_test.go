package multiple

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
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

// rejectedInstances are valid instances a variant must refuse with the
// oracle's error: a client above W (every variant), and a ternary tree
// (Bin). Invalid instances never reach a session: the solver seam
// refuses them (TestInvalidInstanceRefusedAtSeam in internal/solver).
func rejectedInstances() []namedInstance {
	b := tree.NewBuilder()
	r := b.Root("")
	n1 := b.Internal(r, 1, "")
	b.Client(n1, 1, 9, "")
	b.Client(n1, 1, 2, "")
	b.Client(r, 1, 3, "")
	narrow := b.MustBuild()
	wide := tree.NewBuilder()
	wr := wide.Root("")
	for i := 0; i < 3; i++ {
		wide.Client(wr, 1, 2, "")
	}
	return []namedInstance{
		{"r > W", &core.Instance{Tree: narrow, W: 5, DMax: core.NoDistance}},
		{"ternary", &core.Instance{Tree: wide.MustBuild(), W: 5, DMax: 1}},
	}
}

// TestMultipleSessionMatchesCold pins the package's one implementation
// of all four variants against the reference oracles: on 200 random
// instances, the whole testdata corpus and rejectedInstances, a
// session returns the oracle's solution or error text, and so does the
// session re-solving the same instance.
func TestMultipleSessionMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var rows []namedInstance
	for i := 0; i < 200; i++ {
		rows = append(rows, namedInstance{fmt.Sprintf("random %d", i), sessionInstance(rng, i%2 == 0)})
	}
	rows = append(rows, corpus(t)...)
	rows = append(rows, rejectedInstances()...)
	variants := []struct {
		name   string
		oracle func(*core.Instance) (*core.Solution, error)
		warm   func(*Session) (*core.Solution, error)
	}{
		{"greedy", referenceGreedy, (*Session).Greedy},
		{"lazy", referenceLazy, (*Session).Lazy},
		{"best", referenceBest, (*Session).Best},
		{"bin", referenceBin, (*Session).Bin},
	}
	var s Session
	for _, row := range rows {
		in := row.in
		if err := in.Validate(); err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		s.Reset(in)
		for round := 0; round < 2; round++ {
			for _, v := range variants {
				want, wantErr := v.oracle(in)
				got, gotErr := v.warm(&s)
				sameOutcome(t, fmt.Sprintf("%s %s session round %d", row.name, v.name, round), want, wantErr, got, gotErr)
			}
		}
	}
}

// TestMultipleSessionPreconditions pins which variants refuse r > W
// and a ternary tree.
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
	if _, err := s.Best(); err == nil || !strings.HasPrefix(err.Error(), "multiple: Best requires ri ≤ W") {
		t.Fatalf("warm Best on r > W: error %v, want one naming Best", err)
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

// TestMergeRunsMatchesStableSort holds visit's run merge to a stable
// sort of the concatenated runs by non-increasing d: on random run
// sets (empty runs and ties included), a single run, and 10⁵
// one-element runs (the root of a star). One session merges every
// case in turn, so the swapped buffers are reused across sizes.
func TestMergeRunsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// runSet draws sorted runs of the given lengths, d in [0, maxD).
	runSet := func(lens []int, maxD int) (list, []int) {
		var l list
		bounds := []int{0}
		for _, n := range lens {
			run := make(list, n)
			for i := range run {
				run[i] = triple{d: int64(rng.Intn(maxD)), w: 1 + int64(rng.Intn(5))}
			}
			slices.SortFunc(run, func(a, b triple) int { return int(b.d - a.d) })
			l = append(l, run...)
			bounds = append(bounds, len(l))
		}
		// The client field numbers the triples, so the comparison
		// sees any reordering of equal d.
		for i := range l {
			l[i].client = tree.NodeID(i)
		}
		return l, bounds
	}
	type tc struct {
		name string
		lens []int
		maxD int
	}
	star := make([]int, 100_000)
	for i := range star {
		star[i] = 1
	}
	cases := []tc{
		{"single run", []int{50}, 10},
		{"empty runs", []int{0, 3, 0, 0, 5, 0}, 4},
		{"star root", star, 1_000},
	}
	for i := 0; i < 300; i++ {
		lens := make([]int, rng.Intn(12))
		for k := range lens {
			lens[k] = rng.Intn(8)
		}
		cases = append(cases, tc{fmt.Sprintf("random %d", i), lens, 1 + rng.Intn(10)})
	}
	var s Session
	for _, c := range cases {
		l, bounds := runSet(c.lens, c.maxD)
		want := slices.Clone(l)
		slices.SortStableFunc(want, func(a, b triple) int { return int(b.d - a.d) })
		s.vtmp, s.runs = append(s.vtmp[:0], l...), append(s.runs[:0], bounds...)
		if got := s.mergeRuns(); !slices.Equal(got, want) {
			t.Fatalf("%s: merge differs from the stable sort", c.name)
		}
	}
}
