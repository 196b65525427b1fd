package service

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/solver"
)

// goldenManifest loads the full golden manifest: instance file →
// solver → replica count.
func goldenManifest(t testing.TB) map[string]map[string]int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest map[string]map[string]int
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	return manifest
}

// TestV2SolveGoldenCorpus is the answer pin of the HTTP surface: for
// every (instance, solver) pair of the golden corpus, a cold /v2/solve
// returns the manifest's replica count under the instance's canonical
// hash, and an identical repeat is served from the cache with the
// identical solution and metadata.
func TestV2SolveGoldenCorpus(t *testing.T) {
	manifest := goldenManifest(t)
	srv, ts := newTestServer(t, Options{CacheSize: 4096})
	solve := func(file, name string, in *core.Instance) SolveResponseV2 {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Solver: name, Instance: in})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s/%s: status %d: %s", file, name, resp.StatusCode, body)
		}
		var sr SolveResponseV2
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		return sr
	}
	pairs := 0
	for file, want := range manifest {
		in := goldenInstance(t, file)
		for name, wantReplicas := range want {
			if name == "lower-bound" {
				continue
			}
			cold := solve(file, name, in)
			warm := solve(file, name, in)
			pairs++
			if cold.Replicas != wantReplicas || warm.Replicas != wantReplicas {
				t.Errorf("%s/%s: replicas cold=%d warm=%d, golden %d", file, name, cold.Replicas, warm.Replicas, wantReplicas)
			}
			if cold.Hash != in.CanonicalHash() || warm.Hash != cold.Hash {
				t.Errorf("%s/%s: hash mismatch: cold=%s warm=%s", file, name, cold.Hash, warm.Hash)
			}
			if cold.Policy != warm.Policy || cold.LowerBound != warm.LowerBound || cold.Gap != warm.Gap {
				t.Errorf("%s/%s: metadata diverged: cold={%s %d %v} warm={%s %d %v}",
					file, name, cold.Policy, cold.LowerBound, cold.Gap, warm.Policy, warm.LowerBound, warm.Gap)
			}
			if !reflect.DeepEqual(cold.Solution, warm.Solution) {
				t.Errorf("%s/%s: cached solution diverged from the cold one", file, name)
			}
			if cold.Cached {
				t.Errorf("%s/%s: first request reported cached", file, name)
			}
			if !warm.Cached {
				t.Errorf("%s/%s: repeat missed the cache the cold solve filled", file, name)
			}
			if !cold.Verified || !warm.Verified {
				t.Errorf("%s/%s: verification flags cold=%v warm=%v", file, name, cold.Verified, warm.Verified)
			}
		}
	}
	if pairs < 50 {
		t.Fatalf("golden corpus covered only %d (instance, solver) pairs", pairs)
	}
	if st := srv.CacheStats(); st.Hits < uint64(pairs) {
		t.Errorf("cache hits %d below pair count %d", st.Hits, pairs)
	}
}

// TestV2SolversCapabilities: GET /v2/solvers returns the full
// capability document of every registered engine, in registry order.
func TestV2SolversCapabilities(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var docs []CapabilityDoc
	if resp := getJSON(t, ts.URL+"/v2/solvers", &docs); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	catalog := solver.Catalog()
	if len(docs) != len(catalog) {
		t.Fatalf("%d docs for %d registered engines", len(docs), len(catalog))
	}
	for i, c := range catalog {
		d := docs[i]
		if d.Name != c.Name || d.Policy != c.Policy.String() || d.Exact != c.Exact ||
			d.SupportsDMax != c.SupportsDMax ||
			d.Cost != c.Cost.String() || d.Description != c.Description {
			t.Errorf("doc %d diverged from registry: %+v vs %+v", i, d, c)
		}
	}
}

// problemFrom decodes an RFC 7807 body and asserts the media type.
func problemFrom(t *testing.T, resp *http.Response, body []byte) Problem {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != "application/problem+json" {
		t.Errorf("error content type %q, want application/problem+json", ct)
	}
	var p Problem
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatalf("non-problem error body: %v: %s", err, body)
	}
	if p.Status != resp.StatusCode {
		t.Errorf("problem status %d disagrees with HTTP status %d", p.Status, resp.StatusCode)
	}
	return p
}

func TestV2ProblemStatuses(t *testing.T) {
	feasible := goldenInstance(t, "binary_nod_1.json")
	constrained := goldenInstance(t, "binary_dist_1.json")
	_, ts := newTestServer(t, Options{})

	cases := []struct {
		name   string
		req    SolveRequestV2
		status int
		typ    string
	}{
		{"unknown solver", SolveRequestV2{Solver: "nope", Instance: feasible},
			http.StatusNotFound, ProblemUnknownSolver},
		{"NoD gate", SolveRequestV2{Solver: "single-nod", Instance: constrained},
			http.StatusUnprocessableEntity, ProblemUnsupported},
		{"policy constraint", SolveRequestV2{Solver: "multiple-bin", Instance: feasible, Policy: "single"},
			http.StatusUnprocessableEntity, ProblemUnsupported},
		{"budget exhaustion", SolveRequestV2{Solver: "exact-multiple", Instance: feasible, Budget: 1},
			http.StatusUnprocessableEntity, ProblemBudgetExhausted},
		{"missing instance", SolveRequestV2{Solver: "single-gen"},
			http.StatusBadRequest, ProblemBadRequest},
		{"missing solver", SolveRequestV2{Instance: feasible},
			http.StatusBadRequest, ProblemBadRequest},
		{"bad policy string", SolveRequestV2{Solver: "single-gen", Instance: feasible, Policy: "both"},
			http.StatusBadRequest, ProblemBadRequest},
		{"negative timeout", SolveRequestV2{Solver: "single-gen", Instance: feasible, TimeoutMS: -1},
			http.StatusBadRequest, ProblemBadRequest},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+"/v2/solve", c.req)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.status, body)
			continue
		}
		p := problemFrom(t, resp, body)
		if p.Type != c.typ {
			t.Errorf("%s: problem type %q, want %q", c.name, p.Type, c.typ)
		}
		if p.Title == "" || p.Detail == "" {
			t.Errorf("%s: incomplete problem document %+v", c.name, p)
		}
	}

	// Malformed JSON → 400 problem.
	resp, err := http.Post(ts.URL+"/v2/solve", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d", resp.StatusCode)
	}
	problemFrom(t, resp, buf)
}

// TestV2BudgetExhaustedExactEngines: the exact replica-set search
// reports a spent work budget as the budget-exhausted problem.
func TestV2BudgetExhaustedExactEngines(t *testing.T) {
	in := goldenInstance(t, "binary_dist_2.json")
	_, ts := newTestServer(t, Options{})
	resp, body := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Solver: solver.ExactMultiple, Instance: in, Budget: 1})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (%s)", resp.StatusCode, body)
	}
	if p := problemFrom(t, resp, body); p.Type != ProblemBudgetExhausted {
		t.Errorf("problem type %q, want %q", p.Type, ProblemBudgetExhausted)
	}
}

// TestV2InfeasibleInstance: an instance no solver can satisfy is a
// typed 422 infeasible problem.
func TestV2InfeasibleInstance(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	// One client with 10 requests, W=3, dmax=1: only the client itself
	// is eligible and 10 > 3.
	body := `{"solver":"auto","instance":{"tree":{"root":0,"nodes":[
		{"id":0,"parent":-1,"dist":0},
		{"id":1,"parent":0,"dist":5,"requests":10}]},"w":3,"dmax":1}}`
	resp, err := http.Post(ts.URL+"/v2/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, raw)
	}
	if p := problemFrom(t, resp, raw); p.Type != ProblemInfeasible {
		t.Errorf("problem type %q, want %q", p.Type, ProblemInfeasible)
	}
}

// TestV2AutoSolve drives the portfolio over HTTP: the response names
// the winning engine, carries a proof on a small instance and matches
// the golden optimum.
func TestV2AutoSolve(t *testing.T) {
	const file = "binary_dist_1.json"
	in := goldenInstance(t, file)
	_, ts := newTestServer(t, Options{CacheSize: 8})
	resp, body := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Solver: "auto", Instance: in})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SolveResponseV2
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Solver != "auto" || sr.Engine == "" || sr.Engine == "auto" {
		t.Errorf("winner attribution wrong: solver=%q engine=%q", sr.Solver, sr.Engine)
	}
	if want := goldenReplicas(t, file, "auto"); sr.Replicas != want {
		t.Errorf("replicas %d, golden %d", sr.Replicas, want)
	}
	if !sr.Proved {
		t.Error("small-instance portfolio not proved over HTTP")
	}
	if err := core.Verify(in, core.Multiple, sr.Solution); err != nil {
		t.Errorf("returned solution does not verify: %v", err)
	}

	// A body that still asks to skip the bound through the retired
	// "hints" object: the field is unknown and ignored, so the bound is
	// reported, and the cached copy carries it too.
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	hinted := []byte(`{"solver":"multiple-best","hints":{"no-lower-bound":"1"},"instance":` + string(raw) + `}`)
	for i, wantCached := range []bool{false, true} {
		resp, body := postRaw(t, ts.URL+"/v2/solve", hinted)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post %d: status %d: %s", i, resp.StatusCode, body)
		}
		var sr SolveResponseV2
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.LowerBound != core.LowerBound(in) || sr.Cached != wantCached {
			t.Errorf("post %d: bound %d (want %d), cached %v (want %v)",
				i, sr.LowerBound, core.LowerBound(in), sr.Cached, wantCached)
		}
	}
}

// TestV2BatchLifecycle: typed batch tasks (policy constraints, auto,
// a failing NoD-gated task) through submit → poll, with the full
// report block per task.
func TestV2BatchLifecycle(t *testing.T) {
	in1 := goldenInstance(t, "binary_nod_1.json")
	in2 := goldenInstance(t, "binary_dist_2.json")
	_, ts := newTestServer(t, Options{CacheSize: 8, JobWorkers: 2})

	req := BatchRequestV2{Workers: 1, Tasks: []BatchTaskV2{
		{ID: "auto", Solver: "auto", Instance: in1},
		{ID: "exact", Solver: "exact-multiple", Instance: in2},
		{ID: "constrained", Solver: "auto", Instance: in1, Policy: "single"},
		{ID: "bad", Solver: "single-nod", Instance: in2}, // NoD-gated → fails
	}}
	resp, body := postJSON(t, ts.URL+"/v2/batch", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var acc BatchAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.Tasks != 4 || !strings.HasPrefix(acc.StatusURL, "/v2/jobs/") {
		t.Fatalf("unexpected accept body %+v", acc)
	}

	jr := pollJobV2(t, ts.URL, acc.JobID)
	if len(jr.Results) != 4 || jr.Stats == nil || jr.Stats.Solved != 3 || jr.Stats.Failed != 1 {
		t.Fatalf("job outcome %+v", jr)
	}
	byID := make(map[string]TaskResultV2, len(jr.Results))
	for _, r := range jr.Results {
		byID[r.ID] = r
	}
	if r := byID["auto"]; !r.OK || r.Engine == "" || r.LowerBound <= 0 || !r.Proved {
		t.Errorf("auto task missing report block: %+v", r)
	}
	if r := byID["exact"]; !r.OK || !r.Proved || r.Work <= 0 || r.Policy != "Multiple" {
		t.Errorf("exact task missing proof/work: %+v", r)
	}
	if r := byID["constrained"]; !r.OK || r.Policy != "Single" {
		t.Errorf("policy-constrained task wrong: %+v", r)
	}
	if r := byID["bad"]; r.OK || r.Error == "" {
		t.Errorf("NoD-gated task did not fail: %+v", r)
	}

	// Unknown job IDs are typed 404 problems on v2.
	resp2, err := http.Get(ts.URL + "/v2/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw, _ := io.ReadAll(resp2.Body)
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d", resp2.StatusCode)
	}
	if p := problemFrom(t, resp2, raw); p.Type != ProblemUnknownJob {
		t.Errorf("unknown job problem type %q", p.Type)
	}
}
