package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/solver"
	"replicatree/internal/tree"
)

// goldenInstance loads one instance of the checked-in corpus.
func goldenInstance(t testing.TB, name string) *core.Instance {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	var in core.Instance
	if err := json.Unmarshal(data, &in); err != nil {
		t.Fatal(err)
	}
	return &in
}

// goldenReplicas reads the manifest's replica count for (instance,
// solver), the repository's golden regression currency.
func goldenReplicas(t testing.TB, instance, solverName string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var manifest map[string]map[string]int
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	n, ok := manifest[instance][solverName]
	if !ok {
		t.Fatalf("manifest has no entry for %s/%s", instance, solverName)
	}
	return n
}

func newTestServer(t testing.TB, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(opt)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, url, data)
}

// postRaw posts a body as it is, for bytes a typed request cannot
// marshal to.
func postRaw(t testing.TB, url string, data []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
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

func getJSON(t testing.TB, url string, into any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestSolveRoundTripGolden(t *testing.T) {
	const instance, solverName = "binary_nod_1.json", "multiple-best"
	in := goldenInstance(t, instance)
	_, ts := newTestServer(t, Options{CacheSize: 8})

	resp, body := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Solver: solverName, Instance: in})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var sr SolveResponseV2
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Verified {
		t.Error("response not marked verified")
	}
	if sr.Cached {
		t.Error("first solve reported as cached")
	}
	if sr.Hash != in.CanonicalHash() {
		t.Errorf("hash mismatch: %s vs %s", sr.Hash, in.CanonicalHash())
	}
	if want := goldenReplicas(t, instance, solverName); sr.Replicas != want {
		t.Errorf("replicas %d, manifest says %d", sr.Replicas, want)
	}
	if sr.Replicas != sr.Solution.NumReplicas() {
		t.Errorf("replica count %d disagrees with solution %d", sr.Replicas, sr.Solution.NumReplicas())
	}
	// The wire solution must re-verify locally against the instance.
	if err := core.Verify(in, core.Multiple, sr.Solution); err != nil {
		t.Errorf("returned solution does not verify: %v", err)
	}
	if sr.LowerBound <= 0 || sr.Replicas < sr.LowerBound {
		t.Errorf("implausible lower bound %d for %d replicas", sr.LowerBound, sr.Replicas)
	}
	if want := float64(sr.Replicas-sr.LowerBound) / float64(sr.LowerBound); sr.Gap != want {
		t.Errorf("gap %v, want %v", sr.Gap, want)
	}
}

func TestSolveCacheAccounting(t *testing.T) {
	in := goldenInstance(t, "binary_dist_1.json")
	srv, ts := newTestServer(t, Options{CacheSize: 8})
	req := SolveRequestV2{Solver: "multiple-greedy", Instance: in}

	var first, second SolveResponseV2
	_, body := postJSON(t, ts.URL+"/v2/solve", req)
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	_, body = postJSON(t, ts.URL+"/v2/solve", req)
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if first.Cached || !second.Cached {
		t.Errorf("cached flags: first=%v second=%v, want false/true", first.Cached, second.Cached)
	}
	if first.Replicas != second.Replicas || first.Hash != second.Hash {
		t.Errorf("cached response diverged: %+v vs %+v", first, second)
	}
	if second.LowerBound != first.LowerBound || second.Gap != first.Gap {
		t.Errorf("cached bound diverged: lb %d/%d gap %v/%v",
			first.LowerBound, second.LowerBound, first.Gap, second.Gap)
	}
	st := srv.CacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Errorf("cache stats %+v, want 1 hit / 1 miss / size 1", st)
	}

	// A different solver on the same instance is a distinct cache line.
	_, body = postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Solver: "single-gen", Instance: in})
	var third SolveResponseV2
	if err := json.Unmarshal(body, &third); err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Error("different solver unexpectedly hit the cache")
	}
	if got := srv.CacheStats(); got.Size != 2 || got.Misses != 2 {
		t.Errorf("cache stats after second solver: %+v", got)
	}
}

// TestUnknownHintsShareOneCacheLine: a "hints" object is an unknown
// field, so bodies that differ only in it are one request. They share
// one cache line, keyed by the bare canonical hash, however large the
// objects are.
func TestUnknownHintsShareOneCacheLine(t *testing.T) {
	in := goldenInstance(t, "binary_dist_1.json")
	cache := NewCache(8)
	_, ts := newTestServer(t, Options{Cache: cache})
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	for i, hints := range []string{
		`{"no-lower-bound":"1"}`,
		`{"x":"` + strings.Repeat("a", 64<<10) + `"}`,
		`{"exact":"force","decomp":"skip"}`,
	} {
		body := `{"solver":"multiple-greedy","hints":` + hints + `,"instance":` + string(raw) + `}`
		resp, out := postRaw(t, ts.URL+"/v2/solve", []byte(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("body %d: status %d: %s", i, resp.StatusCode, out)
		}
		var sr SolveResponseV2
		if err := json.Unmarshal(out, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Cached != (i > 0) || sr.LowerBound != core.LowerBound(in) {
			t.Errorf("body %d: cached %v, bound %d", i, sr.Cached, sr.LowerBound)
		}
	}
	if st := cache.Stats(); st.Hits != 2 || st.Misses != 1 || st.Size != 1 {
		t.Errorf("cache stats %+v, want 2 hits / 1 miss / size 1", st)
	}
	for _, line := range cache.MostRecent(0) {
		if line.Key != in.CanonicalHash() {
			t.Errorf("cache key %.80q (%d bytes), want the bare hash %s", line.Key, len(line.Key), in.CanonicalHash())
		}
	}
}

func TestSolveMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := map[string]string{
		"not json":         "{",
		"missing instance": `{"solver":"single-gen"}`,
		"missing solver":   `{"instance":{"tree":{"root":0,"nodes":[{"id":0,"parent":-1,"dist":0},{"id":1,"parent":0,"dist":1,"requests":1}]},"w":1}}`,
		// Structurally invalid: a root with no children fails
		// tree.Validate inside UnmarshalJSON.
		"invalid tree": `{"solver":"single-gen","instance":{"tree":{"root":0,"nodes":[{"id":0,"parent":-1,"dist":0}]},"w":1}}`,
		// Semantically invalid: W must be positive.
		"invalid capacity": `{"solver":"single-gen","instance":{"tree":{"root":0,"nodes":[{"id":0,"parent":-1,"dist":0},{"id":1,"parent":0,"dist":1,"requests":1}]},"w":0}}`,
	}
	for name, body := range cases {
		resp, err := http.Post(ts.URL+"/v2/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, resp.StatusCode, raw)
			continue
		}
		p := problemFrom(t, resp, raw)
		if p.Type != ProblemBadRequest {
			t.Errorf("%s: problem type %q, want %q", name, p.Type, ProblemBadRequest)
		}
		if p.Detail == "" {
			t.Errorf("%s: empty problem detail", name)
		}
	}
}

func TestSolveUnknownSolverListsRegistry(t *testing.T) {
	in := goldenInstance(t, "binary_nod_1.json")
	_, ts := newTestServer(t, Options{})
	resp, body := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Solver: "no-such-solver", Instance: in})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
	p := problemFrom(t, resp, body)
	if p.Type != ProblemUnknownSolver {
		t.Errorf("problem type %q, want %q", p.Type, ProblemUnknownSolver)
	}
	for _, name := range solver.List() {
		if !strings.Contains(p.Detail, name) {
			t.Errorf("404 detail does not list registered solver %q: %s", name, p.Detail)
		}
	}
}

// TestSolveNoDGatedSolver: dispatching a NoD-only solver on a
// distance-constrained instance is a solver-level error → 422.
func TestSolveNoDGatedSolver(t *testing.T) {
	in := goldenInstance(t, "binary_dist_1.json")
	_, ts := newTestServer(t, Options{})
	resp, body := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Solver: "single-nod", Instance: in})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422; body %s", resp.StatusCode, body)
	}
	if p := problemFrom(t, resp, body); p.Type != ProblemUnsupported {
		t.Errorf("problem type %q, want %q", p.Type, ProblemUnsupported)
	}
}

// TestSolveAboveEngineCeiling: lp-round on an instance above its
// declared MaxNodes is refused before the engine builds anything → a
// quick 422 instead of a tableau of gigabytes.
func TestSolveAboveEngineCeiling(t *testing.T) {
	b := tree.NewBuilder()
	root := b.Root("root")
	for i := 0; i < 4100; i++ {
		b.Client(b.Internal(root, 1, ""), 1, 1+int64(i%7), "")
	}
	in := &core.Instance{Tree: b.MustBuild(), W: 64, DMax: 4}
	_, ts := newTestServer(t, Options{})
	resp, body := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Solver: solver.LPRound, Instance: in})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422; body %s", resp.StatusCode, body)
	}
	if p := problemFrom(t, resp, body); p.Type != ProblemUnsupported || !strings.Contains(p.Detail, "8201 nodes") {
		t.Errorf("problem %+v, want %q naming the node count", p, ProblemUnsupported)
	}
}

func TestBatchJobLifecycle(t *testing.T) {
	in1 := goldenInstance(t, "binary_nod_1.json")
	in2 := goldenInstance(t, "binary_dist_2.json")
	srv, ts := newTestServer(t, Options{CacheSize: 8, JobWorkers: 2})

	// Workers: 1 makes in-job dispatch sequential, so the repeat of
	// task "a" deterministically finds its result already cached.
	req := BatchRequestV2{Workers: 1, Tasks: []BatchTaskV2{
		{ID: "a", Solver: "multiple-best", Instance: in1},
		{ID: "b", Solver: "multiple-best", Instance: in2},
		{ID: "a-again", Solver: "multiple-best", Instance: in1},
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
	if acc.Tasks != 4 || acc.JobID == "" || acc.StatusURL != "/v2/jobs/"+acc.JobID {
		t.Fatalf("unexpected accept body %+v", acc)
	}

	jr := pollJobV2(t, ts.URL, acc.JobID)
	if len(jr.Results) != 4 {
		t.Fatalf("%d results, want 4", len(jr.Results))
	}
	byID := make(map[string]TaskResultV2, len(jr.Results))
	for _, r := range jr.Results {
		byID[r.ID] = r
	}
	for _, id := range []string{"a", "b", "a-again"} {
		r := byID[id]
		if !r.OK || r.Solution == nil {
			t.Errorf("task %s failed: %+v", id, r)
		}
	}
	if want := goldenReplicas(t, "binary_nod_1.json", "multiple-best"); byID["a"].Replicas != want {
		t.Errorf("task a: %d replicas, manifest says %d", byID["a"].Replicas, want)
	}
	if byID["bad"].OK || byID["bad"].Error == "" {
		t.Errorf("NoD-gated task did not fail: %+v", byID["bad"])
	}
	// Tasks dispatch in order, so the duplicate of "a" is a cache hit.
	if !byID["a-again"].Cached {
		t.Errorf("repeated task not served from cache: %+v", byID["a-again"])
	}
	if byID["a-again"].Replicas != byID["a"].Replicas {
		t.Errorf("cache changed the answer: %d vs %d", byID["a-again"].Replicas, byID["a"].Replicas)
	}
	if jr.Stats == nil || jr.Stats.Solved != 3 || jr.Stats.Failed != 1 {
		t.Errorf("job stats %+v, want 3 solved / 1 failed", jr.Stats)
	}
	if st := srv.CacheStats(); st.Hits < 1 {
		t.Errorf("batch cache never hit: %+v", st)
	}
}

func TestBatchRejections(t *testing.T) {
	in := goldenInstance(t, "binary_nod_1.json")
	srv, ts := newTestServer(t, Options{})
	task := BatchTaskV2{Solver: "multiple-best", Instance: in}
	oversized := BatchRequestV2{Tasks: make([]BatchTaskV2, maxBatchTasks+1)}
	for i := range oversized.Tasks {
		oversized.Tasks[i] = task
	}
	cases := []struct {
		name   string
		req    BatchRequestV2
		status int
		typ    string
	}{
		{"empty batch", BatchRequestV2{}, http.StatusBadRequest, ProblemBadRequest},
		{"unknown batch solver", BatchRequestV2{Tasks: []BatchTaskV2{{Solver: "nope", Instance: in}}},
			http.StatusNotFound, ProblemUnknownSolver},
		{"negative workers", BatchRequestV2{Workers: -1, Tasks: []BatchTaskV2{task}},
			http.StatusBadRequest, ProblemBadRequest},
		{"oversized batch", oversized, http.StatusRequestEntityTooLarge, ProblemTooLarge},
	}
	for _, c := range cases {
		resp, body := postJSON(t, ts.URL+"/v2/batch", c.req)
		if resp.StatusCode != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.status, body)
			continue
		}
		if p := problemFrom(t, resp, body); p.Type != c.typ {
			t.Errorf("%s: problem type %q, want %q", c.name, p.Type, c.typ)
		}
	}

	resp, err := http.Get(ts.URL + "/v2/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	} else if p := problemFrom(t, resp, raw); p.Type != ProblemUnknownJob {
		t.Errorf("unknown job: problem type %q, want %q", p.Type, ProblemUnknownJob)
	}

	// A closed job pool refuses new work with 503.
	srv.jobs.Close()
	resp, body := postJSON(t, ts.URL+"/v2/batch", BatchRequestV2{Tasks: []BatchTaskV2{task}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("closed pool: status %d, want 503", resp.StatusCode)
	} else if p := problemFrom(t, resp, body); p.Type != ProblemOverloaded {
		t.Errorf("closed pool: problem type %q, want %q", p.Type, ProblemOverloaded)
	}
}

// TestTimeoutValidation: timeout_ms is validated identically on solve
// and batch — negative values and values whose millisecond-to-Duration
// conversion overflows are 400 bad-request problems, never a silent
// "no timeout" or a deadline in the past (422 budget-exhausted).
func TestTimeoutValidation(t *testing.T) {
	in := goldenInstance(t, "binary_nod_1.json")
	_, ts := newTestServer(t, Options{})
	for _, ms := range []int64{-1, 1e13} {
		for _, c := range []struct {
			path string
			body any
		}{
			{"/v2/solve", SolveRequestV2{Solver: "single-gen", Instance: in, TimeoutMS: ms}},
			{"/v2/batch", BatchRequestV2{TimeoutMS: ms, Tasks: []BatchTaskV2{{Solver: "single-gen", Instance: in}}}},
		} {
			resp, body := postJSON(t, ts.URL+c.path, c.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s timeout_ms=%d: status %d, want 400 (%s)", c.path, ms, resp.StatusCode, body)
				continue
			}
			p := problemFrom(t, resp, body)
			if p.Type != ProblemBadRequest || !strings.Contains(p.Detail, "timeout_ms") {
				t.Errorf("%s timeout_ms=%d: problem %+v, want bad-request naming timeout_ms", c.path, ms, p)
			}
		}
	}
	// The largest representable timeout is still accepted.
	resp, body := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Solver: "single-gen", Instance: in, TimeoutMS: maxTimeoutMS})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("timeout_ms=%d: status %d (%s)", maxTimeoutMS, resp.StatusCode, body)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	in := goldenInstance(t, "binary_nod_1.json")
	_, ts := newTestServer(t, Options{CacheSize: 8})

	var health map[string]any
	if resp := getJSON(t, ts.URL+"/healthz", &health); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz body %v", health)
	}
	if int(health["solvers"].(float64)) != len(solver.List()) {
		t.Errorf("healthz solver count %v, want %d", health["solvers"], len(solver.List()))
	}

	// Two solves (one warm) and a 404, then check the counters.
	req := SolveRequestV2{Solver: "multiple-best", Instance: in}
	postJSON(t, ts.URL+"/v2/solve", req)
	postJSON(t, ts.URL+"/v2/solve", req)
	postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Solver: "nope", Instance: in})

	var metrics struct {
		MetricsSnapshot
		Cache CacheStats `json:"cache"`
	}
	if resp := getJSON(t, ts.URL+"/metrics", &metrics); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if got := metrics.Requests["/v2/solve"]; got != 3 {
		t.Errorf("solve request count %d, want 3", got)
	}
	if got := metrics.Statuses["4xx"]; got != 1 {
		t.Errorf("4xx count %d, want 1", got)
	}
	if metrics.Cache.Hits != 1 || metrics.Cache.Misses != 1 {
		t.Errorf("metrics cache block %+v, want 1 hit / 1 miss", metrics.Cache)
	}
	if metrics.Cache.HitRate != 0.5 {
		t.Errorf("hit rate %v, want 0.5", metrics.Cache.HitRate)
	}
	// The cold solve must appear in the per-solver histogram; the warm
	// one must not.
	ls, ok := metrics.Solvers["multiple-best"]
	if !ok || ls.Count != 1 {
		t.Errorf("latency histogram %+v, want exactly 1 recorded solve", ls)
	}
	var inBuckets uint64
	for _, c := range ls.Buckets {
		inBuckets += c
	}
	if inBuckets != 1 {
		t.Errorf("histogram buckets sum to %d, want 1: %v", inBuckets, ls.Buckets)
	}
}

// TestConcurrentSolves hammers one instance from many goroutines to
// exercise the cache under the race detector.
func TestConcurrentSolves(t *testing.T) {
	in := goldenInstance(t, "wide_nod.json")
	srv, ts := newTestServer(t, Options{CacheSize: 4})
	req := SolveRequestV2{Solver: "multiple-greedy", Instance: in}
	const n = 16
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, body := func() (*http.Response, []byte) {
				data, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/v2/solve", "application/json", bytes.NewReader(data))
				if err != nil {
					errs <- err
					return nil, nil
				}
				defer resp.Body.Close()
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				return resp, buf.Bytes()
			}()
			if resp == nil {
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			errs <- nil
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	st := srv.CacheStats()
	if st.Hits+st.Misses != n {
		t.Errorf("lookup count %d, want %d", st.Hits+st.Misses, n)
	}
	// After the storm settles the entry is resident: one more request
	// must be a deterministic hit.
	_, body := postJSON(t, ts.URL+"/v2/solve", req)
	var sr SolveResponseV2
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Cached {
		t.Error("follow-up request after concurrent load not served from cache")
	}
}
