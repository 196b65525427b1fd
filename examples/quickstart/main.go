// Quickstart: build a small distribution tree, place replicas under
// both access policies, and verify the placements.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"replicatree/internal/core"
	"replicatree/internal/solver"
	"replicatree/internal/tree"
)

// solve runs one registered engine on in; the engine verifies its
// answer before returning it.
func solve(name string, in *core.Instance) *core.Solution {
	rep, err := solver.MustLookup(name).Solve(context.Background(), solver.Request{Instance: in})
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	return rep.Solution
}

func main() {
	// A toy distribution tree: the root holds the master copy; two
	// internal routers; four clients with known request rates. Edge
	// labels are distances (latency units).
	b := tree.NewBuilder()
	root := b.Root("origin")
	east := b.Internal(root, 2, "east")
	west := b.Internal(root, 3, "west")
	b.Client(east, 1, 40, "boston")
	b.Client(east, 2, 35, "nyc")
	b.Client(west, 1, 30, "sf")
	b.Client(west, 2, 15, "seattle")
	t := b.MustBuild()

	in := &core.Instance{
		Tree: t,
		W:    60, // each replica serves up to 60 req/s
		DMax: 4,  // every request must be served within distance 4
	}
	fmt.Printf("instance: %s, W=%d, dmax=%d\n\n", t, in.W, in.DMax)

	// Single policy: each client bound to exactly one server.
	// Algorithm 1 (single-gen) is a (Δ+1)-approximation.
	sgl := solve(solver.SingleGen, in)
	report(in, core.Single, "Single policy — single-gen (Algorithm 1)", sgl)

	// Multiple policy: a client's requests may be split. Algorithm 3
	// (multiple-bin) is the paper's polynomial algorithm for binary
	// trees; multiple-best additionally runs the lazy variant and
	// keeps the better placement.
	mul := solve(solver.MultipleBest, in)
	report(in, core.Multiple, "Multiple policy — multiple-bin (Algorithm 3, best variant)", mul)

	fmt.Printf("lower bound (any policy): %d replicas\n", core.LowerBound(in))
}

func report(in *core.Instance, pol core.Policy, title string, sol *core.Solution) {
	if err := core.Verify(in, pol, sol); err != nil {
		log.Fatalf("%s: infeasible: %v", title, err)
	}
	fmt.Println(title)
	loads := sol.Loads()
	for _, r := range sol.Replicas {
		fmt.Printf("  replica at %-8s load %2d/%d\n", in.Tree.Name(r), loads[r], in.W)
	}
	for _, a := range sol.Assignments {
		fmt.Printf("    %-8s -> %-8s %2d req/s (distance %d)\n",
			in.Tree.Name(a.Client), in.Tree.Name(a.Server), a.Amount,
			in.Tree.DistanceUp(a.Client, a.Server))
	}
	fmt.Println()
}
