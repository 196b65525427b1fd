package service

import (
	"encoding/json"
	"math/bits"
	"net/http"
	"testing"
	"time"

	"replicatree/internal/core"
	"replicatree/internal/solver"
)

// pollJobV2 polls GET /v2/jobs/{id} until the job settles.
func pollJobV2(t testing.TB, baseURL, id string) JobResponseV2 {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var resp JobResponseV2
		if r := getJSON(t, baseURL+"/v2/jobs/"+id, &resp); r.StatusCode != http.StatusOK {
			t.Fatalf("job poll status %d", r.StatusCode)
		}
		if resp.Status == JobDone {
			return resp
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job did not settle within 10s")
	return JobResponseV2{}
}

// TestSolveCertificateV2: "certificate": true on /v2/solve returns an
// offline-verifiable certificate; a cache-hit re-solve returns
// byte-identical certificate bytes (the fleet's gossip/cache paths
// ride on this); omitting the flag omits the certificate.
func TestSolveCertificateV2(t *testing.T) {
	in := goldenInstance(t, "binary_dist_1.json")
	_, ts := newTestServer(t, Options{CacheSize: 8})

	var fresh SolveResponseV2
	resp, body := postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{
		Solver: solver.ExactMultiple, Instance: in, Certificate: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.Certificate == nil {
		t.Fatal("certificate requested but absent")
	}
	if err := fresh.Certificate.VerifyAgainst(in); err != nil {
		t.Fatalf("served certificate rejected offline: %v", err)
	}
	if fresh.Certificate.InstanceHash != fresh.Hash {
		t.Fatalf("certificate commits to %s, response hash is %s", fresh.Certificate.InstanceHash, fresh.Hash)
	}
	if fresh.Certificate.Optimality == nil {
		t.Fatal("exact solve carried no optimality attestation")
	}

	// Cache hit: same certificate bytes.
	var cached SolveResponseV2
	resp, body = postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{
		Solver: solver.ExactMultiple, Instance: in, Certificate: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &cached); err != nil {
		t.Fatal(err)
	}
	if !cached.Cached {
		t.Fatal("second solve missed the cache")
	}
	h1, err := fresh.Certificate.HashHex()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := cached.Certificate.HashHex()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("cached solve issued different certificate bytes: %s vs %s", h1, h2)
	}

	// No flag, no certificate.
	var plain SolveResponseV2
	_, body = postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Solver: solver.ExactMultiple, Instance: in})
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Certificate != nil {
		t.Fatal("certificate present without being requested")
	}
}

// TestBatchCertificatesEndToEnd drives the whole Merkle flow over the
// service: a certificates-enabled batch settles with a certificate
// root, each task's proof endpoint serves a certificate + inclusion
// proof that verifies offline, tasks are addressable by ID and by
// index, and the proof is exactly ⌈log₂ n⌉ hashes.
func TestBatchCertificatesEndToEnd(t *testing.T) {
	files := []string{
		"binary_nod_1.json", "binary_nod_2.json", "binary_dist_1.json",
		"binary_dist_2.json", "gadget_fig4.json", "wide_nod.json", "caterpillar_nod.json",
	}
	_, ts := newTestServer(t, Options{CacheSize: 64})
	req := BatchRequestV2{Certificates: true}
	for _, f := range files {
		req.Tasks = append(req.Tasks, BatchTaskV2{
			ID: f, Solver: "auto", Instance: goldenInstance(t, f),
		})
	}
	resp, body := postJSON(t, ts.URL+"/v2/batch", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var acc BatchAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	done := pollJobV2(t, ts.URL, acc.JobID)
	if done.CertificateRoot == "" {
		t.Fatal("settled certificates-enabled job has no certificate root")
	}
	wantProof := bits.Len(uint(len(files) - 1)) // ⌈log₂ n⌉

	for i, f := range files {
		in := goldenInstance(t, f)
		// Address by task ID.
		var pr ProofResponseV2
		if r := getJSON(t, ts.URL+"/v2/jobs/"+acc.JobID+"/proof/"+f, &pr); r.StatusCode != http.StatusOK {
			t.Fatalf("%s: proof status %d", f, r.StatusCode)
		}
		if pr.TaskIndex != i || pr.TaskID != f || pr.CertificateRoot != done.CertificateRoot {
			t.Fatalf("%s: proof document misaddressed: %+v", f, pr)
		}
		if len(pr.Proof.Siblings) != wantProof {
			t.Fatalf("%s: proof has %d hashes, want ⌈log₂ %d⌉ = %d", f, len(pr.Proof.Siblings), len(files), wantProof)
		}
		if err := pr.Certificate.VerifyAgainst(in); err != nil {
			t.Fatalf("%s: certificate rejected offline: %v", f, err)
		}
		if err := pr.Certificate.VerifyInclusionOf(done.CertificateRoot, pr.Proof); err != nil {
			t.Fatalf("%s: inclusion proof rejected: %v", f, err)
		}
		leaf, err := pr.Certificate.HashHex()
		if err != nil {
			t.Fatal(err)
		}
		if leaf != pr.LeafHash {
			t.Fatalf("%s: served leaf hash %s, recomputed %s", f, pr.LeafHash, leaf)
		}
	}

	// Address by numeric index: must serve the same certificate.
	var byIdx ProofResponseV2
	if r := getJSON(t, ts.URL+"/v2/jobs/"+acc.JobID+"/proof/2", &byIdx); r.StatusCode != http.StatusOK {
		t.Fatalf("proof-by-index status %d", r.StatusCode)
	}
	if byIdx.TaskID != files[2] || byIdx.TaskIndex != 2 {
		t.Fatalf("proof-by-index resolved to %q/%d, want %q/2", byIdx.TaskID, byIdx.TaskIndex, files[2])
	}
}

// TestProofProblems pins the RFC 7807 error surface of the proof
// endpoint: unknown job, certificates-disabled job, unknown task, and
// failed task (no certificate).
func TestProofProblems(t *testing.T) {
	in := goldenInstance(t, "binary_nod_1.json")
	// An infeasible task: Single policy with a request rate above W.
	infeasible := &core.Instance{Tree: in.Tree, W: 1, DMax: core.NoDistance}
	_, ts := newTestServer(t, Options{CacheSize: 8})

	fetch := func(url string) (int, Problem) {
		t.Helper()
		var p Problem
		r := getJSON(t, url, &p)
		return r.StatusCode, p
	}

	// Unknown job.
	status, p := fetch(ts.URL + "/v2/jobs/job-999999/proof/0")
	if status != http.StatusNotFound || p.Type != ProblemUnknownJob {
		t.Fatalf("unknown job: status %d type %s", status, p.Type)
	}

	// Certificates-disabled job.
	resp, body := postJSON(t, ts.URL+"/v2/batch", BatchRequestV2{
		Tasks: []BatchTaskV2{{ID: "a", Solver: "auto", Instance: in}},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var plainJob BatchAccepted
	if err := json.Unmarshal(body, &plainJob); err != nil {
		t.Fatal(err)
	}
	pollJobV2(t, ts.URL, plainJob.JobID)
	status, p = fetch(ts.URL + "/v2/jobs/" + plainJob.JobID + "/proof/a")
	if status != http.StatusConflict || p.Type != ProblemCertsDisabled {
		t.Fatalf("certs-disabled: status %d type %s", status, p.Type)
	}

	// Certificates-enabled job with one good and one failing task.
	resp, body = postJSON(t, ts.URL+"/v2/batch", BatchRequestV2{
		Certificates: true,
		Tasks: []BatchTaskV2{
			{ID: "good", Solver: "auto", Instance: in},
			{ID: "bad", Solver: "single-gen", Policy: "single", Instance: infeasible},
		},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var certJob BatchAccepted
	if err := json.Unmarshal(body, &certJob); err != nil {
		t.Fatal(err)
	}
	done := pollJobV2(t, ts.URL, certJob.JobID)
	if done.CertificateRoot == "" {
		t.Fatal("job with one successful task has no certificate root")
	}
	if done.Results[1].OK {
		t.Fatal("infeasible task unexpectedly succeeded; pick a harder failure")
	}

	// Unknown task name.
	status, p = fetch(ts.URL + "/v2/jobs/" + certJob.JobID + "/proof/nonexistent")
	if status != http.StatusNotFound || p.Type != ProblemUnknownTask {
		t.Fatalf("unknown task: status %d type %s", status, p.Type)
	}
	// Failed task: addressable, but has no certificate.
	status, p = fetch(ts.URL + "/v2/jobs/" + certJob.JobID + "/proof/bad")
	if status != http.StatusNotFound || p.Type != ProblemUnknownTask {
		t.Fatalf("failed task: status %d type %s", status, p.Type)
	}
	// The good task still proves against the root.
	var pr ProofResponseV2
	if r := getJSON(t, ts.URL+"/v2/jobs/"+certJob.JobID+"/proof/good", &pr); r.StatusCode != http.StatusOK {
		t.Fatalf("good task proof status %d", r.StatusCode)
	}
	if err := pr.Certificate.VerifyInclusionOf(done.CertificateRoot, pr.Proof); err != nil {
		t.Fatalf("good task inclusion rejected: %v", err)
	}
	if len(pr.Proof.Siblings) != 0 {
		// One successful leaf → depth-0 tree → empty proof.
		t.Fatalf("single-leaf proof has %d siblings, want 0", len(pr.Proof.Siblings))
	}
}

// TestCertMetricsCounters: /metrics reports certificates issued and
// proofs served; the counters move with the flows above.
func TestCertMetricsCounters(t *testing.T) {
	in := goldenInstance(t, "binary_nod_1.json")
	srv, ts := newTestServer(t, Options{CacheSize: 8})

	postJSON(t, ts.URL+"/v2/solve", SolveRequestV2{Solver: "auto", Instance: in, Certificate: true})
	resp, body := postJSON(t, ts.URL+"/v2/batch", BatchRequestV2{
		Certificates: true,
		Tasks:        []BatchTaskV2{{ID: "x", Solver: "auto", Instance: in}},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	var acc BatchAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	pollJobV2(t, ts.URL, acc.JobID)
	var pr ProofResponseV2
	if r := getJSON(t, ts.URL+"/v2/jobs/"+acc.JobID+"/proof/x", &pr); r.StatusCode != http.StatusOK {
		t.Fatalf("proof status %d", r.StatusCode)
	}

	certs := srv.MetricsSnapshot().Certs
	if certs.Issued < 2 {
		t.Fatalf("certs issued = %d, want ≥ 2 (one inline, one at settle)", certs.Issued)
	}
	if certs.ProofsServed != 1 {
		t.Fatalf("proofs served = %d, want 1", certs.ProofsServed)
	}
	if certs.Failures != 0 {
		t.Fatalf("verification failures = %d, want 0", certs.Failures)
	}

	// The scrape endpoint carries the same block.
	var metricsDoc struct {
		Certs CertMetrics `json:"certs"`
	}
	if r := getJSON(t, ts.URL+"/metrics", &metricsDoc); r.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", r.StatusCode)
	}
	if metricsDoc.Certs != certs {
		t.Fatalf("/metrics certs %+v != snapshot %+v", metricsDoc.Certs, certs)
	}
}
