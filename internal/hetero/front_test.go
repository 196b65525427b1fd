package hetero

import (
	"math/rand"
	"reflect"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/tree"
)

// drawHetero draws instance n of the differential sweep: the shapes in
// turn, with and without a distance bound, and capacities that are W
// everywhere, perturbed around W with every client able to serve
// itself, or drawn from [0, 2W) with zeros everywhere allowed.
func drawHetero(rng *rand.Rand, n int) *Instance {
	t := gen.ShapedTree(rng, gen.Shapes[n%len(gen.Shapes)], 1+rng.Intn(5), 3, 9)
	base := &core.Instance{Tree: t, W: max(1, t.MaxRequests()-2+rng.Int63n(6)), DMax: core.NoDistance}
	if n/len(gen.Shapes)%2 == 0 {
		base.DMax = rng.Int63n(7)
	}
	in := FromUniform(base)
	switch n % 3 {
	case 1:
		for j := range in.Cap {
			if id := tree.NodeID(j); t.IsClient(id) {
				in.Cap[j] = t.Requests(id) + rng.Int63n(5)
			} else {
				in.Cap[j] = rng.Int63n(2 * base.W)
			}
		}
	case 2:
		for j := range in.Cap {
			in.Cap[j] = rng.Int63n(2 * base.W)
		}
	}
	return in
}

// TestFrontEndsMatchReference holds Solve, SolveSingle and Greedy to
// the package's first bodies on 1,200 seeded instances: the same
// solution or the same error text.
func TestFrontEndsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4201))
	solvers := []struct {
		name      string
		got, want func(*Instance) (*core.Solution, error)
	}{
		{"solve", func(in *Instance) (*core.Solution, error) { return Solve(in, 0) },
			func(in *Instance) (*core.Solution, error) { return referenceSolve(in, 0) }},
		{"single", func(in *Instance) (*core.Solution, error) { return SolveSingle(in, 0) },
			func(in *Instance) (*core.Solution, error) { return referenceSolveSingle(in, 0) }},
		{"greedy", Greedy, referenceGreedy},
	}
	solved := make(map[string]int)
	for n := 0; n < 1200; n++ {
		in := drawHetero(rng, n)
		for _, s := range solvers {
			got, gotErr := s.got(in)
			want, wantErr := s.want(in)
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("case %d %s: error %v, reference %v", n, s.name, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("case %d %s: %v, reference %v", n, s.name, got, want)
			}
			if gotErr == nil {
				solved[s.name]++
			}
		}
	}
	for _, s := range solvers {
		if solved[s.name] < 500 || solved[s.name] == 1200 {
			t.Fatalf("%s solved %d of 1200 cases: the sweep lost its coverage", s.name, solved[s.name])
		}
	}
}
