package main

import (
	"context"
	"encoding/json"
	"testing"

	"replicatree/internal/service"
	"replicatree/internal/solver"
	"replicatree/internal/tree"
)

// TestOracleCountsTampering serves one real certified answer, then
// tampers with it two ways: one replica moved to a node that is not a
// replica, and the certificate's bound raised. The oracle must pass the
// real answer and count each tampered one as a failure.
func TestOracleCountsTampering(t *testing.T) {
	st := serverStack()
	defer st.close()
	in := instance(rngFor(1, "oracle", 0), false)
	op := solveOp(solveBody(solver.MultipleBest, in, true))
	status, body, err := st.direct(context.Background(), &op)
	if err != nil || status != 200 {
		t.Fatalf("solve: status %d, err %v: %s", status, err, body)
	}
	tamper := func(edit func(*service.SolveResponseV2)) []byte {
		var resp service.SolveResponseV2
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		edit(&resp)
		b, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	moved := tamper(func(r *service.SolveResponseV2) {
		isReplica := r.Solution.ReplicaSet()
		for j := tree.NodeID(0); int(j) < in.Tree.Len(); j++ {
			if !isReplica[j] {
				r.Solution.Replicas[0] = j
				return
			}
		}
		t.Fatal("every node is a replica")
	})
	// A consistent forgery: the gap is recomputed from the raised bound,
	// so only recomputing the bound itself can catch it.
	raised := tamper(func(r *service.SolveResponseV2) {
		c := r.Certificate
		c.Bound.Value++
		c.Gap = float64(c.Replicas-c.Bound.Value) / float64(c.Bound.Value)
	})

	ops := []httpOp{op, op, op}
	kept := map[int][]byte{0: body, 1: moved, 2: raised}
	gaps, errs := checkSolves(newSolveOracle(), ops, kept)
	if len(gaps) != 1 || len(errs) != 2 {
		t.Fatalf("oracle passed %d answers and failed %d, want 1 and 2: %v", len(gaps), len(errs), errs)
	}
	for _, err := range errs {
		t.Log(err)
	}
}
