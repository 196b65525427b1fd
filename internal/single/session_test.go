package single

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
	if !solutionsEqual(want, got) {
		t.Fatalf("%s:\n oracle %v\n got    %v", label, want, got)
	}
}

// shapedInstance draws row n of a parity sweep: binary, arity-4, star
// and caterpillar trees in turn, requests of 0 to 3 so that equal
// totals tie often, W from max rᵢ to max rᵢ + 3, and every other pass
// over the shapes a finite dmax.
func shapedInstance(rng *rand.Rand, n int) *core.Instance {
	f := gen.ShapedTree(rng, gen.Shapes[n%len(gen.Shapes)], 1+rng.Intn(24), 3, 3)
	for _, c := range f.Clients() {
		if rng.Intn(6) == 0 {
			f.Reqs[c] = 0
		}
	}
	in := &core.Instance{Tree: f, W: max(1, f.MaxRequests()) + rng.Int63n(4), DMax: core.NoDistance}
	if n/len(gen.Shapes)%2 == 1 {
		in.DMax = rng.Int63n(10)
	}
	return in
}

// nodPushUp is Algorithm 2 followed by the push-up post-pass, run on
// the given bodies.
func nodPushUp(nod func(*core.Instance) (*core.Solution, error), push func(*core.Instance, *core.Solution) *core.Solution) func(*core.Instance) (*core.Solution, error) {
	return func(in *core.Instance) (*core.Solution, error) {
		sol, err := nod(in)
		if err != nil {
			return nil, err
		}
		return push(in, sol), nil
	}
}

// TestSessionMatchesCold pins the package's one implementation against
// the reference oracles: on 200 random instances, 1,200 shaped ones,
// the whole testdata corpus and an instance the algorithms must refuse
// (some rᵢ > W), Gen, NoD, PassUp, Best, and NoD or Gen followed by
// PushUp on a session return the oracle's solution or error text, and
// so does the session re-solving the same instance. Invalid instances
// never reach a session: the solver seam refuses them
// (TestInvalidInstanceRefusedAtSeam in internal/solver).
func TestSessionMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var rows []namedInstance
	for i := 0; i < 200; i++ {
		rows = append(rows, namedInstance{fmt.Sprintf("random %d", i), sessionInstance(rng)})
	}
	for i := 0; i < 1200; i++ {
		rows = append(rows, namedInstance{fmt.Sprintf("shaped %d", i), shapedInstance(rng, i)})
	}
	rows = append(rows, corpus(t)...)
	rows = append(rows, namedInstance{"r > W", buildPaper(6, 2)})
	algs := []struct {
		name   string
		oracle func(*core.Instance) (*core.Solution, error)
		warm   func(*Session) (*core.Solution, error)
	}{
		{"gen", referenceGen, (*Session).Gen},
		{"nod", referenceNoD, (*Session).NoD},
		{"passup", referencePassUp, (*Session).PassUp},
		{"best", referenceBest, (*Session).Best},
		{"pushup", nodPushUp(referenceNoD, referencePushUp), (*Session).PushUp},
		{"gen pushup", nodPushUp(referenceGen, referencePushUp), func(s *Session) (*core.Solution, error) {
			sol, err := s.Gen()
			if err == nil {
				s.pushUp(sol) // Gen rebuilds its solution on every call
			}
			return sol, err
		}},
	}
	var s Session
	for _, row := range rows {
		in := row.in
		if err := in.Validate(); err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		s.Reset(in)
		for round := 0; round < 2; round++ {
			for _, a := range algs {
				want, wantErr := a.oracle(in)
				got, gotErr := a.warm(&s)
				sameOutcome(t, fmt.Sprintf("%s %s session round %d", row.name, a.name, round), want, wantErr, got, gotErr)
			}
		}
	}
}

// TestSessionInfeasible pins the session refusing a client above W.
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
// level: warm Gen, NoD, PassUp, Best and PushUp allocate nothing.
func TestSessionAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 60, MaxArity: 3, ExtraClients: 20}, true)
	var s Session
	s.Reset(in)
	for _, a := range []struct {
		name string
		run  func(*Session) (*core.Solution, error)
	}{
		{"Gen", (*Session).Gen}, {"NoD", (*Session).NoD}, {"PassUp", (*Session).PassUp},
		{"Best", (*Session).Best}, {"PushUp", (*Session).PushUp},
	} {
		if _, err := a.run(&s); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(50, func() {
			if _, err := a.run(&s); err != nil {
				t.Fatal(err)
			}
		})
		if avg != 0 {
			t.Fatalf("warm %s allocated %.1f times per run", a.name, avg)
		}
	}
}

// TestGenMemoReuse walks one session through instances of one size,
// each differing from the previous one in exactly one input: a
// request or an edge length (edited in place, as an instance session
// edits its tree), W, dmax, or a parent (a rebuilt tree). The walk
// includes refused steps, W below some rᵢ and some rᵢ raised above W,
// each followed by its repair. Every answer must be referenceGen's, so
// the memo may never serve a stale pending.
func TestGenMemoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	kinds := []string{"request", "request", "request", "edge", "edge", "w", "dmax", "parent", "w < r", "r > w"}
	var s Session
	for trial := 0; trial < 30; trial++ {
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals: 3 + rng.Intn(40), MaxArity: 2 + rng.Intn(3),
			MaxDist: 4, MaxReq: 8, ExtraClients: rng.Intn(6),
		}, rng.Intn(4) != 0)
		clients, internals := in.Tree.Clients(), in.Tree.Internals()
		var repair func()
		for step := 0; step < 80; step++ {
			kind := "repair"
			if repair != nil {
				repair()
				repair = nil
			} else {
				kind = kinds[rng.Intn(len(kinds))]
			}
			f := in.Tree
			switch kind {
			case "request":
				f.Reqs[clients[rng.Intn(len(clients))]] = rng.Int63n(in.W + 1)
			case "edge":
				f.EdgeLens[1+rng.Intn(f.Len()-1)] = rng.Int63n(5)
			case "w":
				in = &core.Instance{Tree: f, W: max(in.W, f.MaxRequests()) + rng.Int63n(3), DMax: in.DMax}
			case "dmax":
				in = &core.Instance{Tree: f, W: in.W, DMax: rng.Int63n(12)}
			case "parent":
				c := clients[rng.Intn(len(clients))]
				q := internals[rng.Intn(len(internals))]
				if q == f.Parents[c] || f.NumChildren(f.Parents[c]) < 2 {
					continue
				}
				in = &core.Instance{Tree: reparent(t, f, c, q), W: in.W, DMax: in.DMax}
			case "w < r":
				if m := f.MaxRequests(); m > 1 {
					old := in
					in = &core.Instance{Tree: f, W: m - 1, DMax: in.DMax}
					repair = func() { in = old }
				}
			case "r > w":
				c := clients[rng.Intn(len(clients))]
				old := f.Reqs[c]
				f.Reqs[c] = in.W + 1
				repair = func() { in.Tree.Reqs[c] = old }
			}
			s.Reset(in)
			want, wantErr := referenceGen(in)
			got, gotErr := s.Gen()
			sameOutcome(t, fmt.Sprintf("trial %d step %d (%s)", trial, step, kind), want, wantErr, got, gotErr)
		}
	}
}

// reparent returns a copy of tr with leaf c moved under node q.
func reparent(t *testing.T, tr *tree.Tree, c, q tree.NodeID) *tree.Tree {
	t.Helper()
	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Root  tree.NodeID       `json:"root"`
		Nodes []tree.NodeRecord `json:"nodes"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	doc.Nodes[c].Parent = q
	if raw, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	out := new(tree.Tree)
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatal(err)
	}
	return out
}
