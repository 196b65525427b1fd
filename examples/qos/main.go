// QoS sweep: how the latency bound dmax drives the number of replicas
// — the distance constraint is the paper's central new ingredient.
// The example sweeps dmax from "local only" to "unconstrained" on a
// fixed tree and prints the resulting replica counts under both
// policies, reproducing in miniature the cost-of-QoS trade-off that
// motivates Sections 3.3 and 4.2.
//
//	go run ./examples/qos
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/single"
	"replicatree/internal/solver"
	"replicatree/internal/stats"
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
	rng := rand.New(rand.NewSource(99))
	t := gen.RandomTree(rng, gen.TreeConfig{
		Internals:    20,
		MaxArity:     2, // binary, so Algorithm 3 applies exactly
		MaxDist:      3,
		MaxReq:       25,
		ExtraClients: 10,
	})
	W := t.MaxRequests() + 40
	fmt.Printf("network: %s, W=%d\n\n", t, W)

	maxD := int64(t.Height()) * 3 // beyond this nothing is constrained
	tab := stats.NewTable("replicas needed vs latency bound",
		"dmax", "Single (single-gen)", "Single +push-up", "Multiple (best)", "volume LB")
	for dmax := int64(0); ; dmax += 2 {
		in := &core.Instance{Tree: t, W: W, DMax: dmax}
		sgl := solve(solver.SingleGen, in)
		up := single.PushUp(in, sgl)
		mul := solve(solver.MultipleBest, in)
		tab.AddRow(dmax, sgl.NumReplicas(), up.NumReplicas(), mul.NumReplicas(),
			core.VolumeLowerBound(in))
		if dmax > maxD {
			break
		}
	}
	// The unconstrained row for reference.
	in := &core.Instance{Tree: t, W: W, DMax: core.NoDistance}
	sgl := solve(solver.SingleNoD, in)
	mul := solve(solver.MultipleBest, in)
	tab.AddRow("∞", sgl.NumReplicas(), single.PushUp(in, sgl).NumReplicas(),
		mul.NumReplicas(), core.VolumeLowerBound(in))

	fmt.Println(tab)
	fmt.Println("tight latency budgets force replicas towards the clients;")
	fmt.Println("relaxing dmax lets placements consolidate towards the root,")
	fmt.Println("and the Multiple policy converges to the volume bound first.")
}
