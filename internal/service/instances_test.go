package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"replicatree/internal/core"
	"replicatree/internal/delta"
	"replicatree/internal/solver"
	"replicatree/internal/tree"
)

// doJSON issues a request with a JSON body (nil for none) and returns
// the response plus its body bytes.
func doJSON(t testing.TB, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// sessionInstance is a small fixture with distinct mutation targets.
func sessionInstance() *core.Instance {
	b := tree.NewBuilder()
	root := b.Root("root")
	n1 := b.Internal(root, 2, "n1")
	n2 := b.Internal(root, 1, "n2")
	b.Client(n1, 1, 4, "c1")
	b.Client(n1, 2, 3, "c2")
	b.Client(n2, 1, 5, "c3")
	b.Client(n2, 3, 2, "c4")
	return &core.Instance{Tree: b.MustBuild(), W: 7, DMax: 4}
}

func decodeProblem(t testing.TB, body []byte) Problem {
	t.Helper()
	var p Problem
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatalf("not a problem document: %v\n%s", err, body)
	}
	return p
}

func TestInstanceSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := sessionInstance()
	id := in.CanonicalHash()
	base := ts.URL + "/v2/instances/" + id

	resp, body := doJSON(t, http.MethodPut, base, InstancePutRequest{Solver: solver.SingleGen, Instance: in})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %d\n%s", resp.StatusCode, body)
	}
	var doc InstanceDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.ID != id || doc.Solver != solver.SingleGen || doc.Nodes != in.Tree.Len() || doc.Solved {
		t.Fatalf("PUT doc %+v", doc)
	}

	// First solution: solved on demand, churn is all-added.
	resp, body = doJSON(t, http.MethodGet, base+"/solution", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET solution: %d\n%s", resp.StatusCode, body)
	}
	var sol InstanceSolveResponse
	if err := json.Unmarshal(body, &sol); err != nil {
		t.Fatal(err)
	}
	if sol.Churn == nil || len(sol.Churn.Added) != sol.Replicas || len(sol.Churn.Removed) != 0 {
		t.Fatalf("first churn %+v (replicas %d)", sol.Churn, sol.Replicas)
	}
	if !sol.Instance.Solved {
		t.Fatal("solution response reports unsolved session")
	}

	// Mutate and re-solve; the placement must equal a cold solve of
	// the mutated instance.
	mut := MutateRequest{Mutations: []delta.Mutation{
		{Op: delta.OpSetRequest, Node: 3, Requests: 6},
		{Op: delta.OpSetEdgeLength, Node: 5, Dist: 2},
	}}
	resp, body = doJSON(t, http.MethodPost, base+"/mutate", mut)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST mutate: %d\n%s", resp.StatusCode, body)
	}
	var after InstanceSolveResponse
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	ed := tree.NewEditor(in.Tree)
	if err := ed.SetRequests(3, 6); err != nil {
		t.Fatal(err)
	}
	if err := ed.SetEdgeLen(5, 2); err != nil {
		t.Fatal(err)
	}
	mutated := &core.Instance{Tree: ed.Tree(), W: in.W, DMax: in.DMax}
	cold, err := solver.MustLookup(solver.SingleGen).Solve(context.Background(), solver.Request{Instance: mutated})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(after.Solution.Replicas, cold.Solution.Replicas) {
		t.Fatalf("mutated placement %v, cold %v", after.Solution.Replicas, cold.Solution.Replicas)
	}
	if after.LowerBound != cold.LowerBound || after.Gap != cold.Gap {
		t.Fatalf("mutated bound %d/%v, cold %d/%v", after.LowerBound, after.Gap, cold.LowerBound, cold.Gap)
	}
	if after.Churn == nil {
		t.Fatal("mutate response carries no churn")
	}

	// Delete, then every session endpoint 404s with the typed problem.
	resp, _ = doJSON(t, http.MethodDelete, base, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}
	resp, body = doJSON(t, http.MethodGet, base+"/solution", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET after DELETE: %d", resp.StatusCode)
	}
	if p := decodeProblem(t, body); p.Type != ProblemUnknownInstance {
		t.Fatalf("problem type %q", p.Type)
	}
	if resp, _ = doJSON(t, http.MethodDelete, base, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double DELETE: %d", resp.StatusCode)
	}
}

func TestInstancePutHashMismatch(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := sessionInstance()
	resp, body := doJSON(t, http.MethodPut, ts.URL+"/v2/instances/not-the-hash",
		InstancePutRequest{Solver: solver.SingleGen, Instance: in})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("status %d\n%s", resp.StatusCode, body)
	}
	p := decodeProblem(t, body)
	if p.Type != ProblemHashMismatch || p.Status != http.StatusConflict {
		t.Fatalf("problem %+v", p)
	}
}

func TestInstanceMutateInfeasible(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := sessionInstance()
	base := ts.URL + "/v2/instances/" + in.CanonicalHash()
	if resp, body := doJSON(t, http.MethodPut, base, InstancePutRequest{Solver: solver.SingleGen, Instance: in}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %d\n%s", resp.StatusCode, body)
	}
	// W below the largest request rate makes Single infeasible.
	resp, body := doJSON(t, http.MethodPost, base+"/mutate",
		MutateRequest{Mutations: []delta.Mutation{{Op: delta.OpSetCapacity, W: 2}}})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d\n%s", resp.StatusCode, body)
	}
	if p := decodeProblem(t, body); p.Type != ProblemInfeasibleMutation {
		t.Fatalf("problem %+v", p)
	}
	// The session survives the failure: a repairing mutation re-solves.
	resp, body = doJSON(t, http.MethodPost, base+"/mutate",
		MutateRequest{Mutations: []delta.Mutation{{Op: delta.OpSetCapacity, W: 9}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repair: %d\n%s", resp.StatusCode, body)
	}
}

func TestInstanceMutateValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := sessionInstance()
	base := ts.URL + "/v2/instances/" + in.CanonicalHash()
	if resp, body := doJSON(t, http.MethodPut, base, InstancePutRequest{Solver: solver.SingleGen, Instance: in}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %d\n%s", resp.StatusCode, body)
	}
	resp, body := doJSON(t, http.MethodPost, base+"/mutate",
		MutateRequest{Mutations: []delta.Mutation{{Op: "warp", Node: 1}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d\n%s", resp.StatusCode, body)
	}
	if p := decodeProblem(t, body); p.Type != ProblemBadRequest {
		t.Fatalf("problem %+v", p)
	}
	// Unknown session: typed 404.
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v2/instances/deadbeef/mutate",
		MutateRequest{Mutations: []delta.Mutation{{Op: delta.OpSetRequest, Node: 3, Requests: 1}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: %d\n%s", resp.StatusCode, body)
	}
	if p := decodeProblem(t, body); p.Type != ProblemUnknownInstance {
		t.Fatalf("problem %+v", p)
	}
}

// TestInstanceMutateCap pins the per-request mutation cap: a list of
// exactly maxMutations ops is applied, one more is refused with a 413
// problem before any op touches the session.
func TestInstanceMutateCap(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := sessionInstance()
	base := ts.URL + "/v2/instances/" + in.CanonicalHash()
	if resp, body := doJSON(t, http.MethodPut, base, InstancePutRequest{Solver: solver.SingleGen, Instance: in}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %d\n%s", resp.StatusCode, body)
	}
	ops := func(n int, w int64) MutateRequest {
		m := make([]delta.Mutation, n)
		for i := range m {
			m[i] = delta.Mutation{Op: delta.OpSetCapacity, W: w}
		}
		return MutateRequest{Mutations: m}
	}

	resp, body := doJSON(t, http.MethodPost, base+"/mutate", ops(maxMutations, 9))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cap: status %d\n%s", resp.StatusCode, body)
	}
	var accepted InstanceSolveResponse
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	if accepted.Instance.W != 9 {
		t.Fatalf("cap: W = %d after the mutations, want 9", accepted.Instance.W)
	}

	resp, body = doJSON(t, http.MethodPost, base+"/mutate", ops(maxMutations+1, 11))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("cap+1: status %d\n%s", resp.StatusCode, body)
	}
	if p := decodeProblem(t, body); p.Type != ProblemTooLarge {
		t.Fatalf("cap+1: problem %+v", p)
	}

	resp, body = doJSON(t, http.MethodGet, base+"/solution", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solution: status %d\n%s", resp.StatusCode, body)
	}
	var after InstanceSolveResponse
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if after.Instance.W != 9 || !slices.Equal(after.Solution.Replicas, accepted.Solution.Replicas) ||
		!slices.Equal(after.Solution.Assignments, accepted.Solution.Assignments) {
		t.Fatalf("the refused list changed the session: W %d, solution %v, want W 9, solution %v",
			after.Instance.W, after.Solution, accepted.Solution)
	}
}

func TestInstanceReplanFailServer(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := sessionInstance()
	base := ts.URL + "/v2/instances/" + in.CanonicalHash()
	if resp, body := doJSON(t, http.MethodPut, base, InstancePutRequest{Solver: solver.MultipleReplan, Instance: in}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %d\n%s", resp.StatusCode, body)
	}
	resp, body := doJSON(t, http.MethodGet, base+"/solution", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET solution: %d\n%s", resp.StatusCode, body)
	}
	var first InstanceSolveResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	down := first.Solution.Replicas[0]
	resp, body = doJSON(t, http.MethodPost, base+"/mutate",
		MutateRequest{Mutations: []delta.Mutation{{Op: delta.OpFailServer, Node: down}}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fail_server: %d\n%s", resp.StatusCode, body)
	}
	var after InstanceSolveResponse
	if err := json.Unmarshal(body, &after); err != nil {
		t.Fatal(err)
	}
	if slices.Contains(after.Solution.Replicas, down) {
		t.Fatalf("failed server %d still placed: %v", down, after.Solution.Replicas)
	}
}

func TestInstanceStoreBounds(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxInstances: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		b := tree.NewBuilder()
		root := b.Root("root")
		b.Client(root, 1, int64(i+1), "c")
		in := &core.Instance{Tree: b.MustBuild(), W: 10, DMax: core.NoDistance}
		id := in.CanonicalHash()
		ids = append(ids, id)
		if resp, body := doJSON(t, http.MethodPut, ts.URL+"/v2/instances/"+id,
			InstancePutRequest{Solver: solver.SingleGen, Instance: in}); resp.StatusCode != http.StatusCreated {
			t.Fatalf("PUT %d: %d\n%s", i, resp.StatusCode, body)
		}
	}
	// The oldest session fell off the LRU; the newer two survive.
	if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/v2/instances/"+ids[0]+"/solution", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted session answered %d", resp.StatusCode)
	}
	for _, id := range ids[1:] {
		if resp, body := doJSON(t, http.MethodGet, ts.URL+"/v2/instances/"+id+"/solution", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("live session %s answered %d\n%s", id, resp.StatusCode, body)
		}
	}
}

func TestInstanceTTLExpiry(t *testing.T) {
	srv, ts := newTestServer(t, Options{InstanceTTL: 20 * time.Millisecond})
	in := sessionInstance()
	base := ts.URL + "/v2/instances/" + in.CanonicalHash()
	if resp, body := doJSON(t, http.MethodPut, base, InstancePutRequest{Solver: solver.SingleGen, Instance: in}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %d\n%s", resp.StatusCode, body)
	}
	time.Sleep(60 * time.Millisecond)
	// The lookup itself drops the expired entry even before the
	// janitor's sweep.
	if resp, _ := doJSON(t, http.MethodGet, base+"/solution", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("expired session answered %d", resp.StatusCode)
	}
	if n := srv.instances.len(); n != 0 {
		t.Fatalf("store retains %d expired sessions", n)
	}
}

// TestInstanceConcurrentMutators hammers one session from parallel
// writers; run under -race this pins the locking of both the store
// and the session. Each response must be internally consistent (a
// verified placement for some interleaving of the mutations).
func TestInstanceConcurrentMutators(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := sessionInstance()
	base := ts.URL + "/v2/instances/" + in.CanonicalHash()
	if resp, body := doJSON(t, http.MethodPut, base, InstancePutRequest{Solver: solver.SingleGen, Instance: in}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("PUT: %d\n%s", resp.StatusCode, body)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				mut := MutateRequest{Mutations: []delta.Mutation{{
					Op: delta.OpSetRequest, Node: tree.NodeID(3 + (g+i)%4), Requests: int64(1 + (g*7+i)%7),
				}}}
				resp, body := doJSON(t, http.MethodPost, base+"/mutate", mut)
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("goroutine %d: %d %s", g, resp.StatusCode, body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The final placement matches a cold solve of the final state.
	resp, body := doJSON(t, http.MethodGet, base+"/solution", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final solution: %d\n%s", resp.StatusCode, body)
	}
}

// TestInstanceDocDMax: the session header writes "dmax" exactly when
// the instance has a distance bound, 0 included, so that it reads back
// the way the instance codec reads an instance.
func TestInstanceDocDMax(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, dmax := range []int64{0, 7, core.NoDistance} {
		in := sessionInstance()
		in.DMax = dmax
		resp, body := doJSON(t, http.MethodPut, ts.URL+"/v2/instances/"+in.CanonicalHash(),
			InstancePutRequest{Solver: solver.SingleGen, Instance: in})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("dmax %d: PUT %d\n%s", dmax, resp.StatusCode, body)
		}
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(body, &raw); err != nil {
			t.Fatal(err)
		}
		got, present := raw["dmax"]
		switch {
		case dmax == core.NoDistance && present:
			t.Errorf("NoD session: dmax %s present", got)
		case dmax != core.NoDistance && string(got) != fmt.Sprint(dmax):
			t.Errorf("dmax %d: got %q", dmax, got)
		}
		var doc InstanceDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.DMax != dmax {
			t.Errorf("dmax %d: the document reads back as %d", dmax, doc.DMax)
		}
	}
}
