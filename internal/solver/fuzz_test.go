package solver

import (
	"context"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/tree"
)

// FuzzAuto holds the staged portfolio to the full race (referenceAuto)
// on decoded instances of at most 15 nodes, under each policy
// constraint: both fail or neither does, the counts agree, auto's
// solution verifies under its reported policy, and a count that meets
// the lower bound is proved.
//
//	go test -run '^$' -fuzz=FuzzAuto -fuzztime=30s ./internal/solver
func FuzzAuto(f *testing.F) {
	f.Add([]byte{5, 4, 0, 1, 3, 0, 2, 4, 1, 1, 2, 1, 3, 2, 255, 0})
	f.Add([]byte{9, 3, 0, 1, 1, 0, 1, 2, 1, 2, 2, 1, 1, 1, 1, 0, 3, 3, 2, 1, 2, 4, 2, 1, 2, 5, 3, 1, 1, 6, 1})
	f.Add([]byte{13, 5, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 3, 0, 0, 3, 0, 0, 1, 0, 0, 1, 0, 0, 2, 0, 0, 2, 0, 0, 5, 0, 0, 4, 0, 0, 3, 200, 2})
	// A client above W: only Multiple placements exist.
	f.Add([]byte{4, 2, 0, 1, 7, 0, 1, 1, 1, 0, 5, 255, 0})
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
		w := int64(1 + next()%8)
		type rec struct {
			parent     int
			dist, reqs int64
		}
		recs := make([]rec, n)
		leaf := make([]bool, n)
		for i := 1; i < n; i++ {
			recs[i] = rec{next() % i, int64(next() % 5), int64(next() % 10)}
			leaf[i] = true
			leaf[recs[i].parent] = false
		}
		b := tree.NewBuilder()
		b.Root("")
		for i := 1; i < n; i++ {
			var r int64
			if leaf[i] {
				r = recs[i].reqs
			}
			if _, err := b.Add(tree.NodeID(recs[i].parent), recs[i].dist, r, ""); err != nil {
				return
			}
		}
		tr, err := b.Build()
		if err != nil {
			return
		}
		in := &core.Instance{Tree: tr, W: w, DMax: core.NoDistance}
		if v := next(); v < 200 {
			in.DMax = int64(v % 12)
		}
		if in.Validate() != nil {
			return
		}
		req := Request{Instance: in, Policy: Want(next() % 3)}
		ref, rerr := referenceAuto(context.Background(), req)
		rep, err := MustLookup(Auto).Solve(context.Background(), req)
		if (err != nil) != (rerr != nil) {
			t.Fatalf("auto error %v, full race error %v", err, rerr)
		}
		if err != nil {
			return
		}
		if got, want := rep.Solution.NumReplicas(), ref.Solution.NumReplicas(); got != want {
			t.Fatalf("auto %d replicas (%s), full race %d (%s)", got, rep.Engine, want, ref.Engine)
		}
		if err := core.Verify(in, rep.Policy, rep.Solution); err != nil {
			t.Fatalf("auto solution (%s) infeasible: %v", rep.Engine, err)
		}
		if req.Policy == WantSingle && rep.Policy != core.Single {
			t.Fatalf("WantSingle answered under %s", rep.Policy)
		}
		if bound := core.LowerBound(in); rep.Solution.NumReplicas() == bound && !rep.Proved {
			t.Fatalf("%d replicas meet the bound but the report is not proved", bound)
		}
	})
}
