package solver

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
)

// autoInstances is a deterministic mixed bag of NoD and
// distance-constrained instances for the portfolio tests.
func autoInstances(n int) []*core.Instance {
	rng := rand.New(rand.NewSource(77))
	out := make([]*core.Instance, n)
	for i := range out {
		out[i] = gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    2 + rng.Intn(5),
			MaxArity:     2 + rng.Intn(3),
			MaxDist:      3,
			MaxReq:       9,
			ExtraClients: rng.Intn(4),
		}, i%2 == 1)
	}
	return out
}

// TestAutoNeverWorse pins the portfolio's whole point: on every
// instance, auto is at least as good as every individual non-hetero
// engine that succeeds, and its solution verifies under its reported
// policy.
func TestAutoNeverWorse(t *testing.T) {
	ctx := context.Background()
	auto := MustLookup(Auto)
	for ii, in := range autoInstances(10) {
		rep, err := auto.Solve(ctx, Request{Instance: in})
		if err != nil {
			t.Fatalf("instance %d: auto: %v", ii, err)
		}
		if err := core.Verify(in, rep.Policy, rep.Solution); err != nil {
			t.Fatalf("instance %d: auto solution infeasible: %v", ii, err)
		}
		got := rep.Solution.NumReplicas()
		for _, eng := range Engines() {
			c := eng.Capabilities()
			if c.Name == Auto {
				continue
			}
			r, err := eng.Solve(ctx, Request{Instance: in})
			if err != nil {
				continue
			}
			if got > r.Solution.NumReplicas() {
				t.Errorf("instance %d: auto %d worse than %s %d", ii, got, c.Name, r.Solution.NumReplicas())
			}
		}
		if rep.Engine == Auto || rep.Engine == "" {
			t.Errorf("instance %d: report does not name the winning engine: %q", ii, rep.Engine)
		}
	}
}

// TestAutoProvedOptimal pins that on small instances the exact
// candidates join the portfolio and certify the winner: the report is
// proved and matches exact-multiple.
func TestAutoProvedOptimal(t *testing.T) {
	ctx := context.Background()
	auto := MustLookup(Auto)
	for ii, in := range autoInstances(6) {
		rep, err := auto.Solve(ctx, Request{Instance: in})
		if err != nil {
			t.Fatalf("instance %d: %v", ii, err)
		}
		if !rep.Proved {
			t.Errorf("instance %d: small-instance portfolio not proved", ii)
		}
		opt, err := MustLookup(ExactMultiple).Solve(ctx, Request{Instance: in})
		if err != nil {
			t.Fatalf("instance %d: exact-multiple: %v", ii, err)
		}
		if rep.Solution.NumReplicas() != opt.Solution.NumReplicas() {
			t.Errorf("instance %d: auto %d, optimum %d", ii, rep.Solution.NumReplicas(), opt.Solution.NumReplicas())
		}
	}
}

// TestAutoWantSingle pins the policy constraint: the portfolio
// restricted to Single engines reports a Single-policy solution that
// matches the best Single engine, and never silently relaxes.
func TestAutoWantSingle(t *testing.T) {
	ctx := context.Background()
	auto := MustLookup(Auto)
	for ii, in := range autoInstances(6) {
		rep, err := auto.Solve(ctx, Request{Instance: in, Policy: WantSingle})
		if err != nil {
			t.Fatalf("instance %d: %v", ii, err)
		}
		if rep.Policy != core.Single {
			t.Fatalf("instance %d: WantSingle returned policy %v", ii, rep.Policy)
		}
		if err := core.Verify(in, core.Single, rep.Solution); err != nil {
			t.Errorf("instance %d: solution fails Single verification: %v", ii, err)
		}
		opt, err := MustLookup(ExactSingle).Solve(ctx, Request{Instance: in})
		if err != nil {
			t.Fatalf("instance %d: exact-single: %v", ii, err)
		}
		if rep.Solution.NumReplicas() != opt.Solution.NumReplicas() {
			t.Errorf("instance %d: constrained auto %d, Single optimum %d",
				ii, rep.Solution.NumReplicas(), opt.Solution.NumReplicas())
		}
	}
}

// TestAutoDeterministic pins reproducibility: selection depends on
// capabilities and replica counts only, never on timing, so repeated
// runs return the same winner and the same solution.
func TestAutoDeterministic(t *testing.T) {
	ctx := context.Background()
	auto := MustLookup(Auto)
	for ii, in := range autoInstances(6) {
		first, err := auto.Solve(ctx, Request{Instance: in})
		if err != nil {
			t.Fatalf("instance %d: %v", ii, err)
		}
		for run := 0; run < 3; run++ {
			again, err := auto.Solve(ctx, Request{Instance: in})
			if err != nil {
				t.Fatalf("instance %d run %d: %v", ii, run, err)
			}
			if again.Engine != first.Engine || again.Proved != first.Proved ||
				!reflect.DeepEqual(again.Solution, first.Solution) {
				t.Fatalf("instance %d run %d: nondeterministic portfolio: %q/%d vs %q/%d",
					ii, run, first.Engine, first.Solution.NumReplicas(),
					again.Engine, again.Solution.NumReplicas())
			}
		}
	}
}

// autoMissed marks the autoInstances(12) instances on which every
// heuristic misses the lower bound (3 replicas against a bound of 2 on
// both, and 3 is optimal), so only an exact candidate can prove their
// count.
func autoMissed(ii int) bool { return ii == 1 || ii == 9 }

// checkBoundProof asserts the proof a portfolio without working exact
// candidates can still give: Proved exactly when the count meets the
// lower bound. It reports whether the count met it.
func checkBoundProof(t *testing.T, ii int, in *core.Instance, rep Report) bool {
	t.Helper()
	met := rep.Solution.NumReplicas() == core.LowerBound(in)
	if rep.Proved != met {
		t.Errorf("instance %d: %d replicas against bound %d, Proved = %v",
			ii, rep.Solution.NumReplicas(), core.LowerBound(in), rep.Proved)
	}
	return met
}

// TestAutoBudgetPropagates pins that Request.Budget reaches the exact
// candidates: a starvation budget silently drops them (the heuristics
// still answer) instead of failing the portfolio, and the report is
// proved only where the count meets the bound.
func TestAutoBudgetPropagates(t *testing.T) {
	for ii, in := range autoInstances(12) {
		rep, err := MustLookup(Auto).Solve(context.Background(), Request{Instance: in, Budget: 1})
		if err != nil {
			t.Fatalf("instance %d: starved portfolio failed outright: %v", ii, err)
		}
		if met := checkBoundProof(t, ii, in, rep); met == autoMissed(ii) {
			t.Errorf("instance %d: bound met = %v, pinned misses at instances 1 and 9", ii, met)
		}
	}
}

// raceInstances draws n seeded instances over gen.Shapes (binary,
// arity-4, star and caterpillar), cycling through every combination of
// shape, size and distance bound: small trees, where the exact stage
// can join, and trees above autoExactMaxNodes, where it cannot, each
// with no distance bound or a finite one. W ranges below the largest
// request too, so some instances admit only Multiple placements.
func raceInstances(n int) []*core.Instance {
	rng := rand.New(rand.NewSource(2501))
	out := make([]*core.Instance, n)
	for i := range out {
		shape := gen.Shapes[i%len(gen.Shapes)]
		internals := 1 + rng.Intn(24)
		if (i/len(gen.Shapes))%2 == 1 {
			// Around the exact gate, mostly above it: a star has
			// internals+2 nodes, the other shapes up to about twice
			// their internals.
			internals = 97 + rng.Intn(12)
			if shape == "star" {
				internals = 2 * internals
			}
		}
		tr := gen.ShapedTree(rng, shape, internals, 3, 9)
		in := &core.Instance{Tree: tr, W: max(2, tr.TotalRequests()/(2+rng.Int63n(20))), DMax: core.NoDistance}
		if (i/(2*len(gen.Shapes)))%2 == 1 {
			in.DMax = 1 + rng.Int63n(2*int64(tr.Height())+1)
		}
		out[i] = in
	}
	return out
}

// TestAutoMatchesFullRace holds the staged portfolio to the full race
// it replaced (referenceAuto). Over the corpus and 1,000 seeded
// instances (50 under the race detector), auto returns the oracle's
// replica count, or fails where it fails, with a solution that
// verifies. A count that meets the lower bound is proved, and comes
// from a stage-1 engine unless none of them reaches it. Every proof
// the full race finds, auto keeps, but one: see singleOnly.
func TestAutoMatchesFullRace(t *testing.T) {
	ctx := context.Background()
	auto := MustLookup(Auto)
	type raceCase struct {
		name   string
		in     *core.Instance
		budget int64
	}
	// The seeded instances (and, under the race detector, the corpus)
	// give both sides a smaller exact budget than the default, which
	// keeps the exact stage in play (it proves or gives up on hundreds
	// of them) at a fraction of the time.
	const budget = 20_000
	n, corpusBudget := 1000, int64(0)
	if instrumented {
		n, corpusBudget = 50, budget
	}
	var cases []raceCase
	for _, c := range corpus(t) {
		cases = append(cases, raceCase{c.name, c.in, corpusBudget})
	}
	for i, in := range raceInstances(n) {
		cases = append(cases, raceCase{fmt.Sprintf("seeded %d", i), in, budget})
	}
	var small, large, met, late, moved, singleOnly int
	for _, c := range cases {
		in := c.in
		if in.Tree.Len() > autoExactMaxNodes {
			large++
		} else {
			small++
		}
		req := Request{Instance: in, Budget: c.budget}
		ref, rerr := referenceAuto(ctx, req)
		rep, err := auto.Solve(ctx, req)
		if (err != nil) != (rerr != nil) {
			t.Fatalf("%s: auto error %v, full race error %v", c.name, err, rerr)
		}
		if err != nil {
			continue
		}
		n := rep.Solution.NumReplicas()
		if want := ref.Solution.NumReplicas(); n != want {
			t.Fatalf("%s: auto %d replicas (%s), full race %d (%s)", c.name, n, rep.Engine, want, ref.Engine)
		}
		if err := core.Verify(in, rep.Policy, rep.Solution); err != nil {
			t.Fatalf("%s: auto solution (%s) infeasible: %v", c.name, rep.Engine, err)
		}
		if rep.LowerBound != core.LowerBound(in) {
			t.Fatalf("%s: report bound %d, want %d", c.name, rep.LowerBound, core.LowerBound(in))
		}
		if n == rep.LowerBound {
			met++
			if !rep.Proved {
				t.Fatalf("%s: count %d meets the bound but the report is not proved", c.name, n)
			}
			if autoStage(MustLookup(rep.Engine).Capabilities()) != stageCheap {
				if e := cheapAtCount(in, n); e != "" {
					t.Fatalf("%s: bound met by %s although stage-1 %s meets it", c.name, rep.Engine, e)
				}
				late++
			}
		}
		if ref.Proved && !rep.Proved {
			// The one proof a stage order can lose: exact-single's
			// proved Single optimum used to win its tie with a
			// Multiple heuristic, and it proves nothing for Multiple.
			if ref.Policy != core.Single || rep.Policy != core.Multiple {
				t.Fatalf("%s: the full race proves %d (%s), auto does not (%s)", c.name, n, ref.Engine, rep.Engine)
			}
			singleOnly++
		}
		if rep.Engine != ref.Engine {
			moved++
		}
	}
	if small == 0 || large == 0 {
		t.Fatalf("sizes cover one side of %d nodes only: %d at or below, %d above", autoExactMaxNodes, small, large)
	}
	t.Logf("%d instances (%d ≤ %d nodes, %d above): bound met on %d (%d of them past stage 1), "+
		"engine attribution changed on %d, a Single-only proof dropped on %d",
		len(cases), small, autoExactMaxNodes, large, met, late, moved, singleOnly)
}

// cheapAtCount returns the first stage-1 candidate that solves the
// instance with n replicas, or "" when none does.
func cheapAtCount(in *core.Instance, n int) string {
	for _, e := range Engines() {
		c := e.Capabilities()
		if c.Name == Auto || c.Name == Decomp || c.Delta || autoStage(c) != stageCheap {
			continue
		}
		rep, err := e.Solve(context.Background(), Request{Instance: in})
		if err == nil && rep.Solution.NumReplicas() == n {
			return c.Name
		}
	}
	return ""
}

// namedInstance is one row of a corpus-wide test.
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
