package multiple

import (
	"math/rand"
	"testing"
	"testing/quick"

	"replicatree/internal/core"
	"replicatree/internal/exact"
	"replicatree/internal/gen"
	"replicatree/internal/tree"
)

func buildBinary(W, dmax int64) *core.Instance {
	b := tree.NewBuilder()
	root := b.Root("root")
	a := b.Internal(root, 1, "a")
	bb := b.Internal(root, 1, "b")
	b.Client(a, 1, 5, "c1")
	b.Client(a, 1, 7, "c2")
	b.Client(bb, 2, 6, "c3")
	b.Client(bb, 1, 4, "c4")
	return &core.Instance{Tree: b.MustBuild(), W: W, DMax: dmax}
}

// solve runs one variant on a fresh session and checks its answer with
// core.Verify, as the solver seam checks every engine's.
func solve(t testing.TB, in *core.Instance, variant func(*Session) (*core.Solution, error)) (*core.Solution, error) {
	t.Helper()
	var s Session
	s.Reset(in)
	sol, err := variant(&s)
	if err == nil {
		if verr := core.Verify(in, core.Multiple, sol); verr != nil {
			t.Fatalf("infeasible answer: %v", verr)
		}
	}
	return sol, err
}

func TestBinHandInstances(t *testing.T) {
	for _, tc := range []struct {
		W, dmax int64
		wantOpt int
	}{
		{22, core.NoDistance, 1}, // everything at the root
		{11, core.NoDistance, 2}, // total 22 = 2×11, splitting allowed
		{8, core.NoDistance, 3},  // ⌈22/8⌉ = 3
		{7, 1, 4},                // c3 can only reach... distances tighten
		{22, 0, 4},               // all local
	} {
		in := buildBinary(tc.W, tc.dmax)
		sol, err := solve(t, in, (*Session).Bin)
		if err != nil {
			t.Fatalf("Bin(W=%d dmax=%d): %v", tc.W, tc.dmax, err)
		}
		if err := core.Verify(in, core.Multiple, sol); err != nil {
			t.Fatalf("Bin(W=%d dmax=%d) infeasible: %v", tc.W, tc.dmax, err)
		}
		opt, err := exact.SolveMultiple(in, exact.Options{})
		if err != nil {
			t.Fatalf("exact(W=%d dmax=%d): %v", tc.W, tc.dmax, err)
		}
		if opt.NumReplicas() != tc.wantOpt {
			t.Errorf("exact(W=%d dmax=%d) = %d, want %d", tc.W, tc.dmax, opt.NumReplicas(), tc.wantOpt)
		}
		if sol.NumReplicas() != opt.NumReplicas() {
			t.Errorf("Bin(W=%d dmax=%d) = %d, optimum = %d — Theorem 6 violated",
				tc.W, tc.dmax, sol.NumReplicas(), opt.NumReplicas())
		}
	}
}

func TestBinPreconditions(t *testing.T) {
	// Non-binary tree.
	b := tree.NewBuilder()
	r := b.Root("r")
	b.Client(r, 1, 1, "x")
	b.Client(r, 1, 1, "y")
	b.Client(r, 1, 1, "z")
	in := &core.Instance{Tree: b.MustBuild(), W: 5, DMax: core.NoDistance}
	if _, err := solve(t, in, (*Session).Bin); err == nil {
		t.Error("Bin should reject arity-3 trees")
	}
	if _, err := solve(t, in, (*Session).Greedy); err != nil {
		t.Errorf("Greedy should accept arity-3 trees: %v", err)
	}
	// Oversized client.
	in2 := buildBinary(6, core.NoDistance) // c2 = 7 > 6
	if _, err := solve(t, in2, (*Session).Bin); err == nil {
		t.Error("Bin should reject ri > W (NP-hard regime, Theorem 5)")
	}
	if _, err := solve(t, in2, (*Session).Greedy); err == nil {
		t.Error("Greedy should reject ri > W")
	}
}

func TestBinSplitsClientsAcrossServers(t *testing.T) {
	// W = 11, total 22: the optimum is 2 and necessarily splits some
	// client between two servers (no partition of whole clients into
	// two 11s exists: 5+7=12, 5+6=11 — oh, 5+6=11 and 7+4=11 works as
	// whole-client split; tighten to W=11 with requests 5,7,6,4 → use
	// a case that forces splitting: W=11, requests 5,7,6,4 but paths
	// force c2 and c3 together).
	b := tree.NewBuilder()
	root := b.Root("root")
	a := b.Internal(root, 1, "a")
	b.Client(a, 1, 7, "c1")
	b.Client(a, 1, 8, "c2")
	b.Client(root, 1, 7, "c3")
	in := &core.Instance{Tree: b.MustBuild(), W: 11, DMax: core.NoDistance}
	sol, err := solve(t, in, (*Session).Bin)
	if err != nil {
		t.Fatal(err)
	}
	if sol.NumReplicas() != 2 {
		t.Fatalf("want 2 replicas (22 = 2×11), got %v", sol)
	}
	// Some client must be split.
	split := false
	for _, c := range in.Tree.Clients() {
		if len(sol.Servers(c)) > 1 {
			split = true
		}
	}
	if !split {
		t.Fatal("optimal solution requires splitting a client; none split")
	}
}

// TestBinOptimalRandom is the Theorem 6 reproduction: on random binary
// instances with ri ≤ W, Bin matches the exact optimum without
// distance constraints on every trial. With distance constraints rare
// off-by-one counterexamples exist (see counterexample_test.go), so
// there the test asserts a gap of at most one replica and a ≥97%
// optimality rate. This is the core experiment E7 in test form.
func TestBinOptimalRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	subopt := 0
	withDTrials := 0
	for trial := 0; trial < 400; trial++ {
		withD := trial%2 == 0
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    1 + rng.Intn(5),
			MaxArity:     2,
			MaxDist:      3,
			MaxReq:       9,
			ExtraClients: rng.Intn(3),
		}, withD)
		sol, err := solve(t, in, (*Session).Bin)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		opt, err := exact.SolveMultiple(in, exact.Options{})
		if err != nil {
			t.Fatalf("trial %d exact: %v", trial, err)
		}
		gap := sol.NumReplicas() - opt.NumReplicas()
		if gap < 0 {
			t.Fatalf("trial %d: Bin=%d below optimum %d — exact solver broken",
				trial, sol.NumReplicas(), opt.NumReplicas())
		}
		if !withD && gap != 0 {
			t.Fatalf("trial %d (NoD): Bin=%d, optimum=%d\n%s\nW=%d",
				trial, sol.NumReplicas(), opt.NumReplicas(), in.Tree, in.W)
		}
		if withD {
			withDTrials++
			if gap > 1 {
				t.Fatalf("trial %d: Bin=%d, optimum=%d — gap beyond the known counterexample class\n%s\nW=%d dmax=%d",
					trial, sol.NumReplicas(), opt.NumReplicas(), in.Tree, in.W, in.DMax)
			}
			if gap == 1 {
				subopt++
			}
		}
	}
	if rate := float64(withDTrials-subopt) / float64(withDTrials); rate < 0.97 {
		t.Fatalf("with-distance optimality rate %.3f below 0.97 (%d/%d suboptimal)",
			rate, subopt, withDTrials)
	}
}

// TestBestOptimalRandom: the Best (eager ∧ lazy) combination matches
// the optimum on at least 99% of mixed random instances and is never
// more than one replica above it.
func TestBestOptimalRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	subopt, trials := 0, 300
	for trial := 0; trial < trials; trial++ {
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    1 + rng.Intn(5),
			MaxArity:     2 + rng.Intn(3),
			MaxDist:      3,
			MaxReq:       9,
			ExtraClients: rng.Intn(3),
		}, trial%2 == 0)
		sol, err := solve(t, in, (*Session).Best)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := core.Verify(in, core.Multiple, sol); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		opt, err := exact.SolveMultiple(in, exact.Options{})
		if err != nil {
			t.Fatalf("trial %d exact: %v", trial, err)
		}
		gap := sol.NumReplicas() - opt.NumReplicas()
		if gap < 0 || gap > 1 {
			t.Fatalf("trial %d: Best=%d optimum=%d", trial, sol.NumReplicas(), opt.NumReplicas())
		}
		if gap == 1 {
			subopt++
		}
	}
	if subopt > trials/100 {
		t.Fatalf("Best suboptimal on %d/%d > 1%%", subopt, trials)
	}
}

// TestBinFeasibilityQuick fuzzes larger binary instances where exact
// solving is too slow: the solution must verify and respect the lower
// bound.
func TestBinFeasibilityQuick(t *testing.T) {
	f := func(seed int64, withDistance bool) bool {
		rng := rand.New(rand.NewSource(seed))
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    1 + rng.Intn(25),
			MaxArity:     2,
			MaxDist:      4,
			MaxReq:       15,
			ExtraClients: rng.Intn(10),
		}, withDistance)
		sol, err := solve(t, in, (*Session).Bin)
		if err != nil {
			return false
		}
		return core.Verify(in, core.Multiple, sol) == nil &&
			sol.NumReplicas() >= core.LowerBound(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyFeasibilityQuick fuzzes arbitrary-arity instances.
func TestGreedyFeasibilityQuick(t *testing.T) {
	f := func(seed int64, withDistance bool) bool {
		rng := rand.New(rand.NewSource(seed))
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    1 + rng.Intn(15),
			MaxArity:     2 + rng.Intn(4),
			MaxDist:      4,
			MaxReq:       15,
			ExtraClients: rng.Intn(10),
		}, withDistance)
		sol, err := solve(t, in, (*Session).Greedy)
		if err != nil {
			return false
		}
		return core.Verify(in, core.Multiple, sol) == nil &&
			sol.NumReplicas() >= core.LowerBound(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestGreedyNoDOptimalRandom measures the generalised algorithm
// against the optimum on general-arity NoD instances (the regime [3]
// proves polynomial). Greedy is a heuristic there: the test asserts a
// gap of at most one replica and a ≥95% optimality rate, matching
// what experiment E8 reports.
func TestGreedyNoDOptimalRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	bad := 0
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    1 + rng.Intn(4),
			MaxArity:     3 + rng.Intn(2),
			MaxDist:      3,
			MaxReq:       9,
			ExtraClients: rng.Intn(4),
		}, false)
		sol, err := solve(t, in, (*Session).Greedy)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		opt, err := exact.SolveMultiple(in, exact.Options{})
		if err != nil {
			t.Fatalf("trial %d exact: %v", trial, err)
		}
		gap := sol.NumReplicas() - opt.NumReplicas()
		if gap < 0 {
			t.Fatalf("trial %d: Greedy=%d below optimum %d", trial, sol.NumReplicas(), opt.NumReplicas())
		}
		if gap > 1 {
			t.Fatalf("trial %d: Greedy=%d optimum=%d — gap > 1\n%s W=%d",
				trial, sol.NumReplicas(), opt.NumReplicas(), in.Tree, in.W)
		}
		if gap == 1 {
			bad++
		}
	}
	if bad > trials/20 {
		t.Fatalf("Greedy sub-optimal on %d/%d NoD general-arity instances (> 5%%)", bad, trials)
	}
}

// TestLazyFeasibleRandom: the Lazy variant always verifies and never
// beats the exact optimum.
func TestLazyFeasibleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2468))
	for trial := 0; trial < 150; trial++ {
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    1 + rng.Intn(6),
			MaxArity:     2 + rng.Intn(3),
			MaxDist:      3,
			MaxReq:       9,
			ExtraClients: rng.Intn(4),
		}, trial%2 == 0)
		sol, err := solve(t, in, (*Session).Lazy)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := core.Verify(in, core.Multiple, sol); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.NumReplicas() < core.LowerBound(in) {
			t.Fatalf("trial %d: below lower bound", trial)
		}
	}
}

func TestListHelpers(t *testing.T) {
	l := list{{d: 9, w: 3, client: 1}, {d: 5, w: 4, client: 2}, {d: 1, w: 2, client: 3}}
	if got := l.total(); got != 9 {
		t.Fatalf("total = %d, want 9", got)
	}
	shifted := l.addDist(2)
	if shifted[0].d != 11 || shifted[2].d != 3 {
		t.Fatalf("addDist wrong: %v", shifted)
	}
	if l[0].d != 9 {
		t.Fatal("addDist mutated the original")
	}
	a := list{{d: 8, w: 1, client: 1}, {d: 4, w: 1, client: 2}}
	bl := list{{d: 6, w: 1, client: 3}, {d: 2, w: 1, client: 4}}
	m := merge(a, bl)
	for i := 1; i < len(m); i++ {
		if m[i-1].d < m[i].d {
			t.Fatalf("merge not sorted: %v", m)
		}
	}
	if len(m) != 4 {
		t.Fatalf("merge lost entries: %v", m)
	}

	head, rest := l.take(5)
	if head.total() != 5 || rest.total() != 4 {
		t.Fatalf("take(5): head=%v rest=%v", head, rest)
	}
	// The split triple keeps its d and client.
	if rest[0].client != 2 || rest[0].d != 5 {
		t.Fatalf("take split wrong: %v", rest)
	}
	head, rest = l.take(100)
	if rest != nil || head.total() != 9 {
		t.Fatalf("take(100): %v %v", head, rest)
	}
	head, rest = l.take(3)
	if head.total() != 3 || rest.total() != 6 {
		t.Fatalf("take(3): %v %v", head, rest)
	}
}

func TestMergeAll(t *testing.T) {
	if mergeAll(nil) != nil {
		t.Fatal("mergeAll(nil) should be nil")
	}
	single := []list{{{d: 1, w: 1, client: 0}}}
	if got := mergeAll(single); len(got) != 1 {
		t.Fatalf("mergeAll single = %v", got)
	}
	three := []list{
		{{d: 9, w: 1, client: 0}},
		{{d: 5, w: 1, client: 1}},
		{{d: 7, w: 1, client: 2}},
	}
	m := mergeAll(three)
	if len(m) != 3 || m[0].d != 9 || m[1].d != 7 || m[2].d != 5 {
		t.Fatalf("mergeAll order wrong: %v", m)
	}
}

// TestBinDistanceBlockedClient: a client whose edge exceeds dmax must
// be served locally.
func TestBinDistanceBlockedClient(t *testing.T) {
	b := tree.NewBuilder()
	r := b.Root("r")
	b.Client(r, 10, 4, "far")
	b.Client(r, 1, 3, "near")
	in := &core.Instance{Tree: b.MustBuild(), W: 10, DMax: 5}
	sol, err := solve(t, in, (*Session).Bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(in, core.Multiple, sol); err != nil {
		t.Fatal(err)
	}
	// far must self-serve; near can go to the root: 2 servers optimal.
	if sol.NumReplicas() != 2 {
		t.Fatalf("want 2 replicas, got %v", sol)
	}
}

// TestBinExtraServerPath engineers the extra-server case: more than W
// distance-blocked requests arrive at one node.
func TestBinExtraServerPath(t *testing.T) {
	// Chain: root — x — y with clients hanging so that at x the
	// blocked requests exceed W.
	b := tree.NewBuilder()
	root := b.Root("root")
	x := b.Internal(root, 10, "x") // edge to root too long for anything
	y := b.Internal(x, 1, "y")
	b.Client(y, 1, 6, "c1")
	b.Client(y, 1, 6, "c2")
	b.Client(x, 1, 6, "c3")
	in := &core.Instance{Tree: b.MustBuild(), W: 7, DMax: 4}
	// 18 requests must all be served in subtree(x) (the 10-edge blocks
	// everything); W = 7 → at least 3 servers, all below root.
	sol, err := solve(t, in, (*Session).Bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Verify(in, core.Multiple, sol); err != nil {
		t.Fatal(err)
	}
	opt, err := exact.SolveMultiple(in, exact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.NumReplicas() != opt.NumReplicas() {
		t.Fatalf("Bin=%d optimum=%d", sol.NumReplicas(), opt.NumReplicas())
	}
	for _, r := range sol.Replicas {
		if r == in.Tree.Root() {
			t.Fatal("nothing can be served at the root here")
		}
	}
}

// TestBinZeroRequestClients: zero-request clients never force
// replicas.
func TestBinZeroRequestClients(t *testing.T) {
	b := tree.NewBuilder()
	r := b.Root("r")
	b.Client(r, 1, 0, "idle")
	b.Client(r, 1, 5, "busy")
	in := &core.Instance{Tree: b.MustBuild(), W: 10, DMax: core.NoDistance}
	sol, err := solve(t, in, (*Session).Bin)
	if err != nil {
		t.Fatal(err)
	}
	if sol.NumReplicas() != 1 {
		t.Fatalf("want 1 replica, got %v", sol)
	}
}

// TestGadgetI6RejectedByBin: the NP-hard regime (ri > W) must be
// rejected by Bin but solvable by the exact solver.
func TestGadgetI6RejectedByBin(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	as := gen.TwoPartitionEqualYes(rng, 2, 6)
	in, _, err := gen.GadgetI6(as)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := solve(t, in, (*Session).Bin); err == nil {
		t.Fatal("Bin must reject I6 (big client exceeds W)")
	}
}
