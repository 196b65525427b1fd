package service

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/delta"
	"replicatree/internal/multiple"
	"replicatree/internal/solver"
	"replicatree/internal/tree"
)

// Two deliberately broken engines. The over-capacity one is a plain
// polynomial engine, so it joins every auto race in this test binary;
// the seam's gate fails its answers, so auto never picks it. The
// excluded-host one is a delta engine and never races.
const (
	overCapacityEngine = "test-over-capacity"
	excludedHostEngine = "test-excluded-host"
)

var registerBrokenEngines sync.Once

func brokenEngines() {
	registerBrokenEngines.Do(func() {
		// One replica at the root serves every client: within dmax on
		// sessionInstance, but far over W.
		solver.MustRegisterEngine(solver.NewEngine(solver.Capabilities{
			Name: overCapacityEngine, Policy: core.Multiple, SupportsDMax: true,
			Cost: solver.CostPolynomial,
		}, func(_ context.Context, req solver.Request) (*core.Solution, int64, error) {
			t := req.Instance.Tree
			sol := &core.Solution{Replicas: []tree.NodeID{t.Root()}}
			for _, c := range t.Clients() {
				if r := t.Requests(c); r > 0 {
					sol.Assign(c, t.Root(), r)
				}
			}
			return sol, 0, nil
		}))
		// Every client serves itself (feasible), plus a replica on
		// every excluded node.
		solver.MustRegisterEngine(solver.NewDeltaEngine(solver.Capabilities{
			Name: excludedHostEngine, Policy: core.Multiple, SupportsDMax: true,
			Cost: solver.CostPolynomial,
		}, func(_ context.Context, req solver.Request) (*core.Solution, *multiple.Churn, int64, error) {
			t := req.Instance.Tree
			sol := &core.Solution{}
			for _, c := range t.Clients() {
				if r := t.Requests(c); r > 0 {
					sol.AddReplica(c)
					sol.Assign(c, c, r)
				}
			}
			for _, x := range req.Exclude {
				sol.AddReplica(x)
			}
			sol.Normalize()
			ch := multiple.PlanDelta(req.Previous, sol)
			return sol, &ch, 0, nil
		}))
	})
}

// TestServedAnswersPassTheGate: an engine answer that breaks a
// constraint is never served. /v2/solve, a batch task, a session's
// first solution and a session mutate each answer with the
// verification problem instead of a 200. auto races the over-capacity
// engine and still serves a verified answer from another engine.
func TestServedAnswersPassTheGate(t *testing.T) {
	brokenEngines()
	_, ts := newTestServer(t, Options{})
	in := sessionInstance()

	wantVerification := func(what string, resp *http.Response, body []byte) {
		t.Helper()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("%s: status %d, want 500\n%s", what, resp.StatusCode, body)
			return
		}
		if p := decodeProblem(t, body); p.Type != ProblemVerification {
			t.Errorf("%s: problem type %q, want %q", what, p.Type, ProblemVerification)
		}
	}

	resp, body := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Solver: overCapacityEngine, Instance: in})
	wantVerification("/v2/solve", resp, body)

	resp, body = postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Solver: solver.Auto, Instance: in})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("auto: status %d\n%s", resp.StatusCode, body)
	}
	var sr SolveResponseV2
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Engine == overCapacityEngine || sr.Engine == excludedHostEngine {
		t.Errorf("auto served the broken engine %q", sr.Engine)
	}
	if err := core.Verify(in, core.Multiple, sr.Solution); err != nil {
		t.Errorf("auto's answer from %s does not verify: %v", sr.Engine, err)
	}

	resp, body = postJSON(t, ts.URL+"/v2/batch", BatchRequestV2{
		Tasks: []BatchTaskV2{{ID: "broken", Solver: overCapacityEngine, Instance: in}},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var acc BatchAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if res := pollJobV2(t, ts.URL, acc.JobID).Results; len(res) != 1 || res[0].OK ||
		!strings.Contains(res[0].Error, "failed verification") {
		t.Errorf("batch task: %+v, want a failed verification", res)
	}

	base := ts.URL + "/v2/instances/" + in.CanonicalHash()
	put := func(engine string) {
		t.Helper()
		resp, body := doJSON(t, http.MethodPut, base, InstancePutRequest{Solver: engine, Instance: in})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT %s: %d\n%s", engine, resp.StatusCode, body)
		}
	}
	put(overCapacityEngine)
	resp, body = doJSON(t, http.MethodGet, base+"/solution", nil)
	wantVerification("GET solution", resp, body)

	put(excludedHostEngine)
	resp, body = doJSON(t, http.MethodPost, base+"/mutate",
		MutateRequest{Mutations: []delta.Mutation{{Op: delta.OpFailServer, Node: 1}}})
	wantVerification("mutate fail_server", resp, body)
}
