// Replan: adapt an existing deployment to changed demand with minimal
// churn. Operators rarely redeploy from scratch: moving a replica
// means cache warm-up and traffic shifts. This example plans a
// placement, doubles demand in one region, and compares a fresh
// re-optimisation against the churn-aware replan: the multiple-replan
// engine, handed the old plan as Request.Previous, reports its churn
// in Report.Churn.
//
//	go run ./examples/replan
package main

import (
	"context"
	"fmt"
	"log"

	"replicatree/internal/core"
	"replicatree/internal/multiple"
	"replicatree/internal/solver"
	"replicatree/internal/tree"
)

func buildTree(eastBoost int64) *tree.Tree {
	b := tree.NewBuilder()
	root := b.Root("origin")
	east := b.Internal(root, 2, "east")
	west := b.Internal(root, 2, "west")
	b.Client(east, 1, 40*eastBoost, "boston")
	b.Client(east, 1, 35*eastBoost, "nyc")
	b.Client(east, 2, 25*eastBoost, "philly")
	b.Client(west, 1, 30, "sf")
	b.Client(west, 2, 20, "seattle")
	b.Client(west, 1, 15, "portland")
	return b.MustBuild()
}

// solve runs one registered engine on req; the engine verifies its
// answer before returning it.
func solve(name string, req solver.Request) solver.Report {
	rep, err := solver.MustLookup(name).Solve(context.Background(), req)
	if err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	return rep
}

func main() {
	const W = 90

	before := &core.Instance{Tree: buildTree(1), W: W, DMax: core.NoDistance}
	plan := solve(solver.MultipleBest, solver.Request{Instance: before}).Solution
	fmt.Printf("day 0: %d streams/s, plan uses %d replicas: %s\n",
		before.Tree.TotalRequests(), plan.NumReplicas(), names(before.Tree, plan.Replicas))

	// East-coast demand doubles.
	after := &core.Instance{Tree: buildTree(2), W: W, DMax: core.NoDistance}
	fmt.Printf("\nday 30: east coast doubles → %d streams/s\n", after.Tree.TotalRequests())

	fresh := solve(solver.MultipleBest, solver.Request{Instance: after}).Solution
	freshChurn := multiple.PlanDelta(plan, fresh)
	fmt.Printf("  fresh re-optimisation: %d replicas, churn: +%d −%d replicas, %d req/s moved\n",
		fresh.NumReplicas(), len(freshChurn.Added), len(freshChurn.Removed), freshChurn.MovedRequests)

	rep := solve(solver.MultipleReplan, solver.Request{Instance: after, Previous: plan})
	stable, churn := rep.Solution, rep.Churn
	fmt.Printf("  churn-aware replan:    %d replicas, churn: +%d −%d replicas, %d req/s moved\n",
		stable.NumReplicas(), len(churn.Added), len(churn.Removed), churn.MovedRequests)
	fmt.Printf("  stability premium: %d extra replica(s)\n",
		stable.NumReplicas()-fresh.NumReplicas())
}

func names(t *tree.Tree, ids []tree.NodeID) string {
	s := ""
	for i, id := range ids {
		if i > 0 {
			s += ", "
		}
		s += t.Name(id)
	}
	return s
}
