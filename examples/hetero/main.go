// Hetero: capacity planning with a mixed appliance fleet. Real
// deployments rarely have the paper's uniform capacity W — edge PoPs
// run small boxes, the core runs big ones. This example plans a
// placement with per-node capacities, compares it against the uniform
// approximation an operator might use instead, and then re-routes the
// final plan for minimal aggregate latency.
//
//	go run ./examples/hetero
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"replicatree/internal/core"
	"replicatree/internal/hetero"
	"replicatree/internal/multiple"
	"replicatree/internal/solver"
	"replicatree/internal/tree"
)

func main() {
	rng := rand.New(rand.NewSource(7))

	// Two-level hierarchy: core site, 3 edge sites, 3 access networks
	// each.
	b := tree.NewBuilder()
	coreSite := b.Root("core")
	var edges []tree.NodeID
	for e := 0; e < 3; e++ {
		edge := b.Internal(coreSite, 4, fmt.Sprintf("edge%d", e))
		edges = append(edges, edge)
		for a := 0; a < 3; a++ {
			b.Client(edge, 1+rng.Int63n(2), 20+rng.Int63n(60), fmt.Sprintf("acc%d-%d", e, a))
		}
	}
	t := b.MustBuild()

	// Mixed fleet: the core hosts a 400-unit box, edges host 120-unit
	// boxes, access networks can self-serve with small 80-unit boxes.
	caps := make([]int64, t.Len())
	caps[coreSite] = 400
	for _, e := range edges {
		caps[e] = 120
	}
	for _, c := range t.Clients() {
		caps[c] = 80
	}
	in := &hetero.Instance{Tree: t, Cap: caps, DMax: 6}
	fmt.Printf("network: %s, latency budget 6\n", t)
	fmt.Printf("fleet: core 400, edge 120, access 80 units\n\n")

	plan, err := hetero.Solve(in, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("heterogeneous optimal plan: %d appliances\n", plan.NumReplicas())
	loads := plan.Loads()
	for _, r := range plan.Replicas {
		fmt.Printf("  %-8s %3d/%d units\n", t.Name(r), loads[r], in.Cap[r])
	}

	// What a uniform-W approximation would do: W = the smallest box
	// that any chosen site could host (a conservative operator's
	// shortcut).
	uni := &core.Instance{Tree: t, W: 120, DMax: 6}
	rep, err := solver.MustLookup(solver.MultipleGreedy).Solve(context.Background(), solver.Request{Instance: uni})
	if err != nil {
		log.Fatal(err)
	}
	usol := rep.Solution
	fmt.Printf("\nuniform-W=120 shortcut plan: %d appliances", usol.NumReplicas())
	fmt.Printf(" (the big core box's extra 280 units go unused in the model)\n")

	// Greedy heuristic for comparison with the exact hetero plan.
	g, err := hetero.Greedy(in)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hetero greedy heuristic:     %d appliances\n", g.NumReplicas())

	// Finally: latency-optimal routing for the uniform plan.
	before := multiple.TotalDistance(t, usol)
	tuned, err := multiple.MinimizeLatency(uni, usol)
	if err != nil {
		log.Fatal(err)
	}
	after := multiple.TotalDistance(t, tuned)
	fmt.Printf("\nlatency re-routing of the uniform plan: total distance %d → %d\n", before, after)
}
