package replicatree_test

// Mutation-metamorphic tests for the delta layer: a session that
// mutates and re-solves incrementally must be indistinguishable —
// report for report, error for error — from cold-solving each mutated
// instance from scratch. Random mutation sequences over the golden
// corpus drive the equivalence; the replan twin re-derives the churn
// contract independently.

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/delta"
	"replicatree/internal/gen"
	"replicatree/internal/multiple"
	"replicatree/internal/solver"
	"replicatree/internal/tree"
)

// corpusMutation draws one valid mutation against the instance shape.
func corpusMutation(rng *rand.Rand, in *core.Instance) delta.Mutation {
	t := in.Tree
	var clients, internals []tree.NodeID
	for j := 0; j < t.Len(); j++ {
		id := tree.NodeID(j)
		if t.IsClient(id) {
			clients = append(clients, id)
		} else {
			internals = append(internals, id)
		}
	}
	maxReq := in.W
	if maxReq > 16 {
		maxReq = 16
	}
	for {
		switch rng.Intn(6) {
		case 0:
			return delta.Mutation{Op: delta.OpSetRequest, Node: clients[rng.Intn(len(clients))], Requests: rng.Int63n(maxReq + 1)}
		case 1:
			return delta.Mutation{Op: delta.OpRemoveClient, Node: clients[rng.Intn(len(clients))]}
		case 2:
			return delta.Mutation{
				Op: delta.OpAddClient, Parent: internals[rng.Intn(len(internals))],
				Dist: rng.Int63n(4), Requests: rng.Int63n(maxReq + 1), Label: "grown",
			}
		case 3:
			return delta.Mutation{Op: delta.OpSetEdgeLength, Node: clients[rng.Intn(len(clients))], Dist: rng.Int63n(5)}
		case 4:
			if len(internals) < 2 {
				continue
			}
			return delta.Mutation{Op: delta.OpSetEdgeLength, Node: internals[1+rng.Intn(len(internals)-1)], Dist: rng.Int63n(5)}
		default:
			return delta.Mutation{Op: delta.OpSetCapacity, W: 1 + rng.Int63n(2*in.W)}
		}
	}
}

// TestDeltaMetamorphicCorpus replays random mutation sequences over
// every corpus instance on a single-gen session and pins each
// mutate-and-resolve against a cold solve of the snapshot: identical
// solutions, bounds, gaps, churn (vs a PlanDelta twin), and identical
// errors (text and sentinel classification) on infeasible steps.
func TestDeltaMetamorphicCorpus(t *testing.T) {
	ctx := context.Background()
	cold := solver.MustLookup(solver.SingleGen)
	for ci, entry := range gen.Corpus() {
		t.Run(entry.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9000 + int64(ci)))
			s, err := delta.New(entry.Instance, solver.SingleGen)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			prev := &core.Solution{}
			for step := 0; step < 25; step++ {
				if step > 0 {
					m := corpusMutation(rng, s.Instance())
					if err := s.Apply([]delta.Mutation{m}); err != nil {
						t.Fatalf("step %d: apply %+v: %v", step, m, err)
					}
				}
				snap := s.Instance()
				got, gerr := s.Resolve(ctx)
				want, werr := cold.Solve(ctx, solver.Request{Instance: snap})
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("step %d: delta err %v, cold err %v", step, gerr, werr)
				}
				if gerr != nil {
					if gerr.Error() != werr.Error() {
						t.Fatalf("step %d: error %q, cold %q", step, gerr, werr)
					}
					if errors.Is(gerr, solver.ErrInfeasible) != errors.Is(werr, solver.ErrInfeasible) {
						t.Fatalf("step %d: sentinel diverged: %v vs %v", step, gerr, werr)
					}
					continue
				}
				if !slices.Equal(got.Solution.Replicas, want.Solution.Replicas) ||
					!slices.Equal(got.Solution.Assignments, want.Solution.Assignments) {
					t.Fatalf("step %d: solutions diverged\n got %v\nwant %v", step, got.Solution, want.Solution)
				}
				if got.LowerBound != want.LowerBound || got.Gap != want.Gap ||
					got.Policy != want.Policy || got.Engine != want.Engine || got.Proved != want.Proved {
					t.Fatalf("step %d: report metadata diverged: %+v vs %+v", step, got, want)
				}
				wantChurn := multiple.PlanDelta(prev, got.Solution)
				if got.Churn == nil ||
					!slices.Equal(got.Churn.Added, wantChurn.Added) ||
					!slices.Equal(got.Churn.Removed, wantChurn.Removed) ||
					got.Churn.MovedRequests != wantChurn.MovedRequests {
					t.Fatalf("step %d: churn %+v, want %+v", step, got.Churn, wantChurn)
				}
				prev = got.Solution
			}
		})
	}
}

// TestDeltaReplanCorpusTwin drives a multiple-replan session with
// request mutations and server failures, against an independent cold
// twin that calls multiple.ReplanExcluding directly with the same
// previous-solution thread — the engine seam must add nothing and
// lose nothing.
func TestDeltaReplanCorpusTwin(t *testing.T) {
	ctx := context.Background()
	for ci, entry := range gen.Corpus() {
		t.Run(entry.Name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(41000 + int64(ci)))
			s, err := delta.New(entry.Instance, solver.MultipleReplan)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			twinPrev := &core.Solution{}
			var failed []tree.NodeID
			for step := 0; step < 15; step++ {
				if step > 0 {
					if rng.Intn(3) == 0 {
						// Fail (or re-fail) a random node.
						node := tree.NodeID(rng.Intn(entry.Instance.Tree.Len()))
						if err := s.Apply([]delta.Mutation{{Op: delta.OpFailServer, Node: node}}); err != nil {
							t.Fatal(err)
						}
						if _, ok := slices.BinarySearch(failed, node); !ok {
							failed = append(failed, node)
							slices.Sort(failed)
						}
					} else {
						m := corpusMutation(rng, s.Instance())
						if err := s.Apply([]delta.Mutation{m}); err != nil {
							t.Fatalf("step %d: apply %+v: %v", step, m, err)
						}
					}
				}
				snap := s.Instance()
				got, gerr := s.Resolve(ctx)
				wantSol, wantChurn, werr := multiple.ReplanExcluding(snap, twinPrev, failed)
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("step %d: session err %v, twin err %v", step, gerr, werr)
				}
				if gerr != nil {
					continue // both infeasible; neither advances its previous solution
				}
				if !slices.Equal(got.Solution.Replicas, wantSol.Replicas) ||
					!slices.Equal(got.Solution.Assignments, wantSol.Assignments) {
					t.Fatalf("step %d: solutions diverged\n got %v\nwant %v", step, got.Solution, wantSol)
				}
				if got.Churn == nil ||
					!slices.Equal(got.Churn.Added, wantChurn.Added) ||
					!slices.Equal(got.Churn.Removed, wantChurn.Removed) ||
					got.Churn.MovedRequests != wantChurn.MovedRequests {
					t.Fatalf("step %d: churn %+v, want %+v", step, got.Churn, wantChurn)
				}
				twinPrev = wantSol
			}
		})
	}
}
