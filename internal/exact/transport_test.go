package exact

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/tree"
)

// drawCase draws instance n of a differential sweep: the shapes in
// turn, with and without a distance bound, and on odd cases a capacity
// per node instead of W everywhere (zeros included).
func drawCase(rng *rand.Rand, n, internals int) (in *core.Instance, caps []int64) {
	t := gen.ShapedTree(rng, gen.Shapes[n%len(gen.Shapes)], 1+rng.Intn(internals), 3, 9)
	in = &core.Instance{Tree: t, W: max(1, t.MaxRequests()-2+rng.Int63n(6)), DMax: core.NoDistance}
	if n/len(gen.Shapes)%2 == 0 {
		in.DMax = rng.Int63n(7)
	}
	caps = uniformCaps(in)
	if n%2 == 1 {
		for j := range caps {
			caps[j] = rng.Int63n(2 * in.W)
		}
	}
	return in, caps
}

// randomSet draws a replica set: a random subset of the nodes, in
// random order, with an occasional duplicate.
func randomSet(rng *rand.Rand, nodes int) []tree.NodeID {
	var R []tree.NodeID
	for _, j := range rng.Perm(nodes) {
		if rng.Intn(3) > 0 {
			R = append(R, tree.NodeID(j))
		}
	}
	if len(R) > 0 && rng.Intn(4) == 0 {
		R = append(R, R[rng.Intn(len(R))])
	}
	return R
}

// checkTransport holds oracle o, bound to (t, dmax, caps), to the
// map-based reference on replica set R: the same verdict, the same
// normalized assignment, and after a feasible Route each Drop equal to
// a fresh test of the reduced set. It returns the number of drops.
func checkTransport(t *testing.T, o *Transport, tr *tree.Tree, dmax int64, caps []int64, R []tree.NodeID) int {
	t.Helper()
	want := referenceFeasible(tr, dmax, caps, R)
	if got := o.Route(R); got != want {
		t.Fatalf("Route(%v) = %v, reference %v", R, got, want)
	}
	wantSol, wantErr := referenceAssignment(tr, dmax, caps, R)
	gotSol := &core.Solution{}
	gotErr := o.Assign(gotSol, R)
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("Assign(%v) error %v, reference %v", R, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(gotSol, wantSol) {
		t.Fatalf("Assign(%v) = %v, reference %v", R, gotSol, wantSol)
	}
	if !want {
		return 0
	}
	set := slices.Clone(R)
	slices.Sort(set)
	set = slices.Compact(set)
	rng := rand.New(rand.NewSource(int64(len(R))))
	rng.Shuffle(len(set), func(i, j int) { set[i], set[j] = set[j], set[i] })
	o.Route(set)
	drops := 0
	for i := 0; i < len(set); {
		trial := slices.Delete(slices.Clone(set), i, i+1)
		want := referenceFeasible(tr, dmax, caps, trial)
		if got := o.Drop(set[i]); got != want {
			t.Fatalf("Drop %d from %v = %v, reference %v", set[i], set, got, want)
		}
		drops++
		if want {
			set = trial
		} else {
			i++
		}
	}
	return drops
}

// TestTransportMatchesReference holds the oracle to the map-based
// network on 1,200 seeded instances, uniform and per-node capacities,
// over random replica sets and every candidate.
func TestTransportMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4101))
	var o Transport
	drops := 0
	for n := 0; n < 1200; n++ {
		in, caps := drawCase(rng, n, 8)
		if n%2 == 0 {
			o.Reset(in)
		} else {
			o.ResetCaps(in.Tree, in.DMax, caps)
		}
		cands, _ := o.Candidates()
		for _, R := range [][]tree.NodeID{nil, cands, randomSet(rng, in.Tree.Len()), randomSet(rng, in.Tree.Len())} {
			drops += checkTransport(t, &o, in.Tree, in.DMax, caps, R)
		}
	}
	if drops < 5000 {
		t.Fatalf("only %d drop tests: the sweep lost its coverage", drops)
	}
}

// TestCandidatesMatchReference: on uniform instances the candidate
// order is the first one, by coverage then ID.
func TestCandidatesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4102))
	for n := 0; n < 1000; n += 2 {
		in, _ := drawCase(rng, n, 8)
		var o Transport
		o.Reset(in)
		got, _ := o.Candidates()
		if want := referenceCandidates(in); !slices.Equal(got, want) {
			t.Fatalf("case %d: candidates %v, reference %v", n, got, want)
		}
	}
}

// TestSearchMatchesReference holds SolveMultiple and SolveSingle to the
// first bodies on 1,000 seeded uniform instances, with the default
// budget and with budgets small enough to run out: the same solution
// or error, and the same Work.
func TestSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4103))
	solvers := []struct {
		name      string
		got, want func(*core.Instance, Options) (*core.Solution, error)
	}{
		{"multiple", SolveMultiple, referenceSolveMultiple},
		{"single", SolveSingle, referenceSolveSingle},
	}
	budgetHits := 0
	for n := 0; n < 1000; n++ {
		in, _ := drawCase(rng, 2*n, 5)
		var budget int64
		if n%3 == 0 {
			budget = 1 + rng.Int63n(300)
		}
		for _, s := range solvers {
			var gotWork, wantWork int64
			got, gotErr := s.got(in, Options{Budget: budget, Work: &gotWork})
			want, wantErr := s.want(in, Options{Budget: budget, Work: &wantWork})
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("case %d %s: error %v, reference %v", n, s.name, gotErr, wantErr)
			}
			if errors.Is(gotErr, ErrBudget) {
				budgetHits++
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d %s: %v, reference %v", n, s.name, got, want)
			}
			if gotWork != wantWork {
				t.Fatalf("case %d %s: work %d, reference %d", n, s.name, gotWork, wantWork)
			}
		}
	}
	if budgetHits == 0 {
		t.Fatal("no case ran out of budget: the sweep lost its coverage")
	}
}

// FuzzTransport decodes a small tree, a capacity per node, dmax and a
// replica set, and holds the oracle to the map-based reference: the
// same verdict and normalized assignment, and after a Route every Drop
// equal to a fresh test of the reduced set. The bytes are read as: the
// node count, the root's capacity, per node after the root its parent (among the earlier
// nodes), edge length, requests (leaves only) and capacity, then dmax
// (a byte of 200 or more means none) and a membership byte per node.
// Missing bytes read as zero.
func FuzzTransport(f *testing.F) {
	f.Add([]byte{5, 0, 1, 3, 4, 0, 2, 4, 0, 1, 1, 5, 9, 1, 3, 2, 2, 255, 1, 1, 0, 1, 1})
	f.Add([]byte{8, 0, 1, 0, 9, 1, 1, 5, 0, 1, 2, 7, 3, 2, 1, 4, 0, 3, 2, 6, 5, 0, 4, 9, 9, 4, 1, 1, 1, 3, 1, 0, 1, 1, 0, 1, 1, 1})
	f.Add([]byte{3, 0, 0, 9, 0, 0, 0, 9, 9, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b
		}
		n := 2 + next()%14
		caps := make([]int64, n)
		caps[0] = int64(next() % 10)
		parents := make([]int, n)
		leaf := make([]bool, n)
		for i := range leaf {
			leaf[i] = true
		}
		type rec struct{ dist, req, cap int64 }
		recs := make([]rec, n)
		for i := 1; i < n; i++ {
			parents[i] = next() % i
			leaf[parents[i]] = false
			recs[i] = rec{int64(next() % 5), int64(next() % 10), int64(next() % 10)}
		}
		b := tree.NewBuilder()
		b.Root("")
		for i := 1; i < n; i++ {
			var r int64
			if leaf[i] {
				r = recs[i].req
			}
			if _, err := b.Add(tree.NodeID(parents[i]), recs[i].dist, r, ""); err != nil {
				return
			}
		}
		tr, err := b.Build()
		if err != nil {
			return
		}
		for i := 1; i < n; i++ {
			caps[i] = recs[i].cap
		}
		dmax := core.NoDistance
		if v := next(); v < 200 {
			dmax = int64(v % 12)
		}
		var R []tree.NodeID
		for j := 0; j < n; j++ {
			if next()%2 == 1 {
				R = append(R, tree.NodeID(j))
			}
		}
		var o Transport
		o.ResetCaps(tr, dmax, caps)
		checkTransport(t, &o, tr, dmax, caps, R)
		cands, _ := o.Candidates()
		checkTransport(t, &o, tr, dmax, caps, cands)
	})
}
