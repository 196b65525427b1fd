package solver

import (
	"context"
	"math/rand"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
)

// coldShaped draws an instance shaped like the benchmark's solve-cold
// requests: a binary tree with the given number of internal nodes, W
// about sixteen servers' worth of demand and dmax twice the height.
func coldShaped(rng *rand.Rand, internals int) *core.Instance {
	t := gen.RandomTree(rng, gen.TreeConfig{Internals: internals, MaxArity: 2, MaxDist: 4, MaxReq: 10})
	return &core.Instance{Tree: t, W: max(t.MaxRequests(), t.TotalRequests()/16), DMax: 2 * int64(t.Height())}
}

// BenchmarkAutoCold is one auto request with no lent scratch on
// solve-cold-shaped instances: 40 of ~210 nodes and 4 of ~2,080,
// taken in turn.
//
//	go test -run '^$' -bench AutoCold -benchmem ./internal/solver
func BenchmarkAutoCold(b *testing.B) {
	for _, size := range []struct {
		name           string
		internals, num int
	}{{"210", 150, 40}, {"2080", 1500, 4}} {
		rng := rand.New(rand.NewSource(2502))
		set := make([]*core.Instance, size.num)
		for i := range set {
			set[i] = coldShaped(rng, size.internals)
		}
		b.Run(size.name, func(b *testing.B) {
			auto := MustLookup(Auto)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := auto.Solve(context.Background(), Request{Instance: set[i%len(set)]}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
