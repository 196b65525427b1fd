package delta

import (
	"context"
	"errors"
	"slices"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/multiple"
	"replicatree/internal/solver"
	"replicatree/internal/tree"
)

// fuzzInstance decodes a small instance from the head of data: a node
// count, then a parent (among the earlier nodes), an edge length and a
// rate per node, then W and dmax. Rates land on the leaves only, so
// every decoded tree is valid. It returns the unread rest, or nil when
// data is too short.
func fuzzInstance(data []byte) (*core.Instance, []byte) {
	if len(data) < 3 {
		return nil, nil
	}
	n := 2 + int(data[0])%14
	data = data[1:]
	if len(data) < 3*(n-1)+2 {
		return nil, nil
	}
	parents := make([]tree.NodeID, n)
	parents[0] = tree.None
	leaf := make([]bool, n)
	for i := range leaf {
		leaf[i] = true
	}
	for i := 1; i < n; i++ {
		parents[i] = tree.NodeID(int(data[3*(i-1)]) % i)
		leaf[parents[i]] = false
	}
	b := tree.NewBuilder()
	b.Root("")
	for i := 1; i < n; i++ {
		var r int64
		if leaf[i] {
			r = int64(data[3*(i-1)+2] % 10)
		}
		if _, err := b.Add(parents[i], int64(data[3*(i-1)+1]%5), r, ""); err != nil {
			return nil, nil
		}
	}
	tr, err := b.Build()
	if err != nil {
		return nil, nil
	}
	data = data[3*(n-1):]
	in := &core.Instance{Tree: tr, W: 1 + int64(data[0]%12), DMax: core.NoDistance}
	if data[1] < 160 {
		in.DMax = int64(data[1] % 12)
	}
	return in, data[2:]
}

// fuzzMutations decodes up to 24 mutations, three bytes each. Node
// numbers run past the current size, and some ops are invalid for any
// tree (capacity 0, a client under a client, the root's edge), so the
// sequence also exercises rejected batches. fail_server ops are valid
// on multiple-replan sessions only; the others reject them.
func fuzzMutations(data []byte, nodes int) []Mutation {
	var muts []Mutation
	for len(data) >= 3 && len(muts) < 24 {
		node := tree.NodeID(int(data[1]) % (nodes + 2))
		switch data[0] % 6 {
		case 5:
			muts = append(muts, Mutation{Op: OpFailServer, Node: node})
		case 0:
			muts = append(muts, Mutation{Op: OpSetRequest, Node: node, Requests: int64(data[2] % 12)})
		case 1:
			muts = append(muts, Mutation{Op: OpRemoveClient, Node: node})
		case 2:
			muts = append(muts, Mutation{Op: OpAddClient, Parent: node, Dist: int64(data[2] % 5), Requests: int64(data[2] % 8)})
			nodes++
		case 3:
			muts = append(muts, Mutation{Op: OpSetEdgeLength, Node: node, Dist: int64(data[2] % 5)})
		default:
			muts = append(muts, Mutation{Op: OpSetCapacity, W: int64(data[2] % 14)})
		}
		data = data[3:]
	}
	return muts
}

// FuzzSessionMutations decodes a small instance and a mutation
// sequence from the fuzz input and drives a single-gen, a
// single-pushup, a multiple-greedy, an lp-round and a multiple-replan
// session through it, one mutation per resolve. The single-pushup
// session starts from the instance's NoD twin, the only kind it
// solves. Every resolve but replan's must equal a cold solve of the
// session's Instance(): the same solution, bound and gap, or the same
// error text and ErrInfeasible classification. A replan answer depends on the previous one, so
// every successful replan resolve must instead pass core.Verify and
// host no replica on a Failed() node. Every churn must be PlanDelta's
// against the last successful answer.
func FuzzSessionMutations(f *testing.F) {
	f.Add([]byte{5, 0, 1, 3, 0, 2, 4, 1, 1, 2, 1, 3, 7, 0, 0, 0, 9, 4, 255, 0, 3, 7, 3, 4, 2, 4, 0, 1, 2, 2, 9})
	f.Add([]byte{9, 0, 1, 0, 0, 2, 0, 1, 1, 5, 1, 0, 6, 2, 3, 2, 2, 1, 8, 0, 4, 3, 3, 2, 1, 5, 40, 0, 4, 5, 4, 0, 2, 3, 1, 2, 0, 9, 1, 3, 1, 4, 3, 11, 4, 0, 7})
	f.Add([]byte{13, 0, 0, 0, 0, 0, 0, 1, 4, 9, 1, 4, 9, 2, 4, 9, 2, 4, 9, 3, 0, 9, 3, 0, 9, 0, 1, 1, 0, 1, 1, 4, 0, 1, 5, 0, 1, 0, 11, 1, 0, 2, 5, 2, 3, 0, 1, 0, 12, 0, 13, 9})
	f.Add([]byte{5, 0, 1, 0, 0, 2, 0, 1, 1, 6, 1, 2, 5, 2, 1, 7, 3, 3, 4, 9, 30, 5, 3, 0, 0, 4, 9, 5, 1, 0, 4, 0, 6, 5, 5, 0, 0, 6, 2, 5, 0, 0})
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, data []byte) {
		in, rest := fuzzInstance(data)
		if in == nil {
			return
		}
		muts := fuzzMutations(rest, in.Tree.Len())
		for _, engine := range []string{solver.SingleGen, solver.SinglePushUp, solver.MultipleGreedy, solver.LPRound, solver.MultipleReplan} {
			cold := solver.MustLookup(engine)
			start := in
			if engine == solver.SinglePushUp {
				start = &core.Instance{Tree: in.Tree, W: in.W, DMax: core.NoDistance}
			}
			s, err := New(start, engine)
			if err != nil {
				t.Fatalf("%s: %v", engine, err)
			}
			var prev *core.Solution
			for step := 0; step <= len(muts); step++ {
				if step > 0 {
					_ = s.Apply(muts[step-1 : step]) // a rejected op leaves the instance as it was
				}
				snap := s.Instance()
				got, gerr := s.Resolve(ctx)
				if engine == solver.MultipleReplan {
					if gerr == nil {
						replanValid(t, step, snap, s.Failed(), got)
						churnEqual(t, engine, got.Churn, multiple.PlanDelta(prev, got.Solution))
						prev = got.Solution
					}
					continue
				}
				want, werr := cold.Solve(ctx, solver.Request{Instance: snap})
				if (gerr == nil) != (werr == nil) {
					t.Fatalf("%s step %d: session err %v, cold err %v", engine, step, gerr, werr)
				}
				if gerr != nil {
					if gerr.Error() != werr.Error() || errors.Is(gerr, solver.ErrInfeasible) != errors.Is(werr, solver.ErrInfeasible) {
						t.Fatalf("%s step %d: session err %q, cold err %q", engine, step, gerr, werr)
					}
					continue
				}
				reportsEqual(t, engine, got, want)
				churnEqual(t, engine, got.Churn, multiple.PlanDelta(prev, got.Solution))
				prev = got.Solution
			}
			s.Close()
		}
	})
}

// replanValid checks one successful replan resolve: a feasible
// Multiple placement of the instance that hosts nothing on a failed
// server.
func replanValid(t *testing.T, step int, in *core.Instance, failed []tree.NodeID, got solver.Report) {
	t.Helper()
	if err := core.Verify(in, core.Multiple, got.Solution); err != nil {
		t.Fatalf("replan step %d: %v", step, err)
	}
	for _, r := range got.Solution.Replicas {
		if _, down := slices.BinarySearch(failed, r); down {
			t.Fatalf("replan step %d: replica on failed server %d (failed %v)", step, r, failed)
		}
	}
}
