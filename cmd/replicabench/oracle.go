package main

import (
	"context"
	"encoding/json"
	"fmt"

	"replicatree/internal/core"
	"replicatree/internal/service"
	"replicatree/internal/solver"
)

// The oracle checks served answers after the timed window, so it never
// competes with the service for the processors. Every check is
// independent of the service's own verification: the answer is
// re-verified against the instance the benchmark sent, its bound is
// recomputed, its replica count is compared with an in-process solve,
// and a certificate must verify on its own.

// parsePolicy maps a response's policy name onto core.Policy.
func parsePolicy(s string) (core.Policy, error) {
	switch s {
	case core.Single.String():
		return core.Single, nil
	case core.Multiple.String():
		return core.Multiple, nil
	}
	return 0, fmt.Errorf("unknown policy %q", s)
}

// solveOracle checks /v2/solve responses. It remembers the in-process
// replica count per request body, since the Zipf workloads repeat keys.
type solveOracle struct {
	ref map[string]int
}

func newSolveOracle() *solveOracle { return &solveOracle{ref: make(map[string]int)} }

// check verifies one response to the request body req and returns the
// answer's gap over the lower bound.
func (o *solveOracle) check(req, resp []byte) (float64, error) {
	var in service.SolveRequestV2
	if err := json.Unmarshal(req, &in); err != nil {
		return 0, fmt.Errorf("oracle: request: %w", err)
	}
	var out service.SolveResponseV2
	if err := json.Unmarshal(resp, &out); err != nil {
		return 0, fmt.Errorf("oracle: response: %w", err)
	}
	gap, err := checkAnswer(in.Instance, out.Policy, out.Replicas, out.LowerBound, out.Solution)
	if err != nil {
		return 0, err
	}
	want, ok := o.ref[string(req)]
	if !ok {
		eng, err := solver.Lookup(in.Solver)
		if err != nil {
			return 0, fmt.Errorf("oracle: %w", err)
		}
		rep, err := eng.Solve(context.Background(), solver.Request{Instance: in.Instance})
		if err != nil {
			return 0, fmt.Errorf("oracle: in-process %s solve: %w", in.Solver, err)
		}
		want = rep.Solution.NumReplicas()
		o.ref[string(req)] = want
	}
	if out.Replicas != want {
		return 0, fmt.Errorf("oracle: %s served %d replicas, in-process solve has %d", in.Solver, out.Replicas, want)
	}
	if in.Certificate {
		if out.Certificate == nil {
			return 0, fmt.Errorf("oracle: certificate requested but absent")
		}
		if err := out.Certificate.VerifyAgainst(in.Instance); err != nil {
			return 0, fmt.Errorf("oracle: certificate: %w", err)
		}
		if out.Certificate.Replicas != out.Replicas {
			return 0, fmt.Errorf("oracle: certificate attests %d replicas, response has %d", out.Certificate.Replicas, out.Replicas)
		}
	}
	return gap, nil
}

// checkAnswer verifies a served placement against the instance: it
// must be feasible under the stated policy, report its own replica
// count, and carry the subtree-sum lower bound.
func checkAnswer(in *core.Instance, policy string, replicas, lowerBound int, sol *core.Solution) (float64, error) {
	if sol == nil {
		return 0, fmt.Errorf("oracle: response has no solution")
	}
	pol, err := parsePolicy(policy)
	if err != nil {
		return 0, fmt.Errorf("oracle: %w", err)
	}
	if err := core.Verify(in, pol, sol); err != nil {
		return 0, fmt.Errorf("oracle: served placement: %w", err)
	}
	if replicas != sol.NumReplicas() {
		return 0, fmt.Errorf("oracle: response says %d replicas, solution has %d", replicas, sol.NumReplicas())
	}
	lb := core.LowerBound(in)
	if lowerBound != lb {
		return 0, fmt.Errorf("oracle: response bound %d, recomputed %d", lowerBound, lb)
	}
	if lb == 0 {
		return 0, nil
	}
	return float64(replicas-lb) / float64(lb), nil
}
