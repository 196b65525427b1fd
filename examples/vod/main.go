// VoD capacity planning: size a Video-on-Demand delivery tree — one of
// the motivating applications in the paper's introduction. A national
// origin feeds regional and metro PoPs; neighbourhood access networks
// are the clients. We choose how many cache replicas to deploy and
// where, then stress the plan with a demand-jitter simulation.
//
//	go run ./examples/vod
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"replicatree/internal/core"
	"replicatree/internal/sim"
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
	rng := rand.New(rand.NewSource(2024))

	// Build a three-level hierarchy: origin → 3 regions → 2-3 metros
	// each → 2-4 neighbourhood clients per metro. Distances model
	// round-trip latencies in milliseconds/10.
	b := tree.NewBuilder()
	origin := b.Root("origin")
	totalClients := 0
	for r := 0; r < 3; r++ {
		region := b.Internal(origin, 3, fmt.Sprintf("region%d", r))
		metros := 2 + rng.Intn(2)
		for m := 0; m < metros; m++ {
			metro := b.Internal(region, 2, fmt.Sprintf("r%dm%d", r, m))
			hoods := 2 + rng.Intn(3)
			for h := 0; h < hoods; h++ {
				demand := int64(50 + rng.Intn(400)) // streams per second
				b.Client(metro, 1+rng.Int63n(2), demand, fmt.Sprintf("r%dm%dh%d", r, m, h))
				totalClients++
			}
		}
	}
	t := b.MustBuild()

	const cacheCapacity = 900 // streams/s one cache appliance sustains
	const latencyBudget = 6   // max client→replica distance

	in := &core.Instance{Tree: t, W: cacheCapacity, DMax: latencyBudget}
	fmt.Printf("VoD tree: %d PoPs, %d neighbourhoods, %d streams/s total demand\n",
		len(t.Internals()), totalClients, t.TotalRequests())
	fmt.Printf("cache appliance capacity: %d streams/s, latency budget: %d\n\n",
		cacheCapacity, latencyBudget)

	// VoD sessions are splittable across caches → Multiple policy.
	sol := solve(solver.MultipleBest, in)
	fmt.Printf("deployment plan: %d cache appliances (volume lower bound %d)\n",
		sol.NumReplicas(), core.VolumeLowerBound(in))
	loads := sol.Loads()
	for _, r := range sol.Replicas {
		util := 100 * float64(loads[r]) / float64(cacheCapacity)
		fmt.Printf("  %-10s %4d/%d streams/s (%.0f%% utilised)\n",
			t.Name(r), loads[r], cacheCapacity, util)
	}

	// Stress the plan: replay 1000 time steps with ±20% demand noise
	// and report how often any appliance is pushed past capacity.
	m, err := sim.Run(in, core.Multiple, sol, sim.Config{Steps: 1000, Jitter: 0.2, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulation (1000 steps, ±20%% demand jitter):\n")
	fmt.Printf("  served %d/%d emitted streams\n", m.TotalServed, m.TotalEmitted)
	fmt.Printf("  mean latency %.2f, max latency %d (budget %d)\n",
		m.MeanLatency, m.MaxLatency, latencyBudget)
	fmt.Printf("  overloaded appliance-steps: %d (worst excess %d streams/s)\n",
		m.OverloadSteps, m.MaxOverload)
	if m.OverloadSteps > 0 {
		fmt.Println("  → plan is tight: saturated appliances spill under bursts;")
		fmt.Println("    re-run with a lower W to build in headroom:")
		padded := &core.Instance{Tree: t, W: cacheCapacity * 8 / 10, DMax: latencyBudget}
		psol := solve(solver.MultipleBest, padded)
		fmt.Printf("    at 80%% target utilisation the plan needs %d appliances\n", psol.NumReplicas())
	}
}
