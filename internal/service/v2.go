package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"time"

	"replicatree/internal/cert"
	"replicatree/internal/core"
	"replicatree/internal/exact"
	"replicatree/internal/solver"
)

// The /v2 surface mirrors the solver package's Request/Report
// contract over HTTP: requests carry the typed constraint fields
// (policy, budget, timeout), responses carry the uniform
// quality metadata (lower bound, gap, work, optimality proof), the
// solver catalogue returns full Capabilities documents, and errors
// are RFC 7807 application/problem+json, typed by the solver
// sentinels.

// SolveRequestV2 is the body of POST /v2/solve — the wire form of
// solver.Request plus the engine name.
type SolveRequestV2 struct {
	// Solver is a registry name (see GET /v2/solvers); "auto" selects
	// the capability-driven portfolio.
	Solver string `json:"solver"`
	// Instance is the problem instance in the core wire format.
	Instance *core.Instance `json:"instance"`
	// Policy constrains the solution's access policy: "", "any",
	// "single" or "multiple" (case-insensitive).
	Policy string `json:"policy,omitempty"`
	// Budget caps the work of exact engines (0 = engine default).
	Budget int64 `json:"budget,omitempty"`
	// TimeoutMS bounds the solve's wall-clock time (0 = none).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Certificate requests a verifiable placement certificate in the
	// response: the canonical instance commitment, the feasibility
	// witness and the lower-bound attestation, checkable offline with
	// cmd/replicaverify. Built on demand at response time — never on
	// the zero-allocation solve path.
	Certificate bool `json:"certificate,omitempty"`
}

// SolveResponseV2 is the body of a successful POST /v2/solve — the
// wire form of solver.Report.
type SolveResponseV2 struct {
	// Solver is the dispatched registry name; Engine is the engine
	// that actually produced the solution (they differ under "auto").
	Solver string `json:"solver"`
	Engine string `json:"engine"`
	// Policy is the access policy the returned solution obeys.
	Policy string `json:"policy"`
	// Hash is the canonical instance hash (the cache key, minus the
	// solver name).
	Hash     string `json:"hash"`
	Replicas int    `json:"replicas"`
	// LowerBound is core.LowerBound of the instance; Gap is
	// (Replicas − LowerBound) / LowerBound, 0 when the bound is met.
	LowerBound int     `json:"lower_bound"`
	Gap        float64 `json:"gap"`
	// Work counts the engine's elementary search steps (exact engines
	// only; 0 when untracked). Proved marks a provably optimal
	// solution for the reported policy.
	Work   int64 `json:"work,omitempty"`
	Proved bool  `json:"proved"`
	// Verified is always true in a 200 response: the engine seam
	// verifies every solution before it is returned or cached.
	Verified bool `json:"verified"`
	// Cached reports whether the solution came from the result cache.
	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Churn is present when the engine adapted a previous placement
	// (delta engines): what changed relative to it.
	Churn    *ChurnDoc      `json:"churn,omitempty"`
	Solution *core.Solution `json:"solution"`
	// Certificate is present when the request asked for one: the
	// offline-verifiable receipt for this solve. Identical bytes are
	// issued for cached and fresh solves of the same instance — the
	// cache stores full reports, and the certificate's canonical
	// encoding covers no wall-clock field.
	Certificate *cert.Certificate `json:"certificate,omitempty"`
}

// BatchRequestV2 is the body of POST /v2/batch.
type BatchRequestV2 struct {
	Tasks []BatchTaskV2 `json:"tasks"`
	// Workers bounds the job's solver pool (0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// TimeoutMS bounds each task (0 = no per-task timeout).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Certificates requests per-task placement certificates, built
	// once when the job settles and committed to a single Merkle root
	// (JobResponseV2.CertificateRoot). Individual certificates with
	// O(log n) inclusion proofs are served by
	// GET /v2/jobs/{id}/proof/{task}.
	Certificates bool `json:"certificates,omitempty"`
}

// BatchTaskV2 is one typed task of a v2 batch job.
type BatchTaskV2 struct {
	// ID is an optional caller label echoed in the task's result.
	ID       string         `json:"id,omitempty"`
	Solver   string         `json:"solver"`
	Instance *core.Instance `json:"instance"`
	Policy   string         `json:"policy,omitempty"`
	Budget   int64          `json:"budget,omitempty"`
}

// TaskResultV2 is the outcome of one v2 batch task: the task identity
// plus the full report metadata of SolveResponseV2.
type TaskResultV2 struct {
	ID         string         `json:"id,omitempty"`
	Solver     string         `json:"solver"`
	Engine     string         `json:"engine,omitempty"`
	Policy     string         `json:"policy,omitempty"`
	OK         bool           `json:"ok"`
	Error      string         `json:"error,omitempty"`
	Replicas   int            `json:"replicas,omitempty"`
	LowerBound int            `json:"lower_bound,omitempty"`
	Gap        float64        `json:"gap,omitempty"`
	Work       int64          `json:"work,omitempty"`
	Proved     bool           `json:"proved,omitempty"`
	Cached     bool           `json:"cached,omitempty"`
	ElapsedMS  float64        `json:"elapsed_ms,omitempty"`
	Solution   *core.Solution `json:"solution,omitempty"`
}

// JobResponseV2 is the body of GET /v2/jobs/{id}.
type JobResponseV2 struct {
	JobID   string         `json:"job_id"`
	Status  string         `json:"status"`
	Results []TaskResultV2 `json:"results,omitempty"`
	Stats   *JobStats      `json:"stats,omitempty"`
	// CertificateRoot is the Merkle root over the job's task
	// certificates (successful tasks, in task order), present once a
	// certificates-enabled job settles. Fetch any task's certificate
	// plus inclusion proof from GET /v2/jobs/{id}/proof/{task}.
	CertificateRoot string `json:"certificate_root,omitempty"`
}

// ProofResponseV2 is the body of GET /v2/jobs/{id}/proof/{task}: one
// task's certificate together with the Merkle inclusion proof tying
// it to the job's certificate root. Everything needed for offline
// verification (cmd/replicaverify) is in here plus the instance the
// caller already holds.
type ProofResponseV2 struct {
	JobID string `json:"job_id"`
	// TaskID echoes the task's caller-supplied label (empty when the
	// task was addressed by index).
	TaskID string `json:"task_id,omitempty"`
	// TaskIndex is the task's position in the submitted batch.
	TaskIndex int `json:"task_index"`
	// CertificateRoot repeats the job's Merkle root so the document is
	// self-contained.
	CertificateRoot string            `json:"certificate_root"`
	Certificate     *cert.Certificate `json:"certificate"`
	// LeafHash is the certificate's Merkle leaf hash
	// (SHA-256(0x00 ‖ canonical encoding)), recomputable from the
	// certificate alone.
	LeafHash string `json:"leaf_hash"`
	// Proof is the ⌈log₂ n⌉-hash inclusion proof.
	Proof *cert.Proof `json:"proof"`
}

// CapabilityDoc is one engine's capability document in
// GET /v2/solvers — the wire form of solver.Capabilities.
type CapabilityDoc struct {
	Name         string `json:"name"`
	Policy       string `json:"policy"`
	Exact        bool   `json:"exact"`
	SupportsDMax bool   `json:"supports_dmax"`
	// Delta marks engines that adapt a previous placement (honouring
	// excluded servers and minimising churn) instead of solving cold;
	// they power the /v2/instances sessions.
	Delta       bool   `json:"delta,omitempty"`
	Cost        string `json:"cost"`
	Description string `json:"description"`
}

// Problem is an RFC 7807 error document, the body of every non-2xx
// /v2 response (Content-Type: application/problem+json).
type Problem struct {
	Type   string `json:"type"`
	Title  string `json:"title"`
	Status int    `json:"status"`
	Detail string `json:"detail,omitempty"`
}

// Problem type URIs, one per error class a /v2 consumer can branch on.
const (
	ProblemBadRequest      = "urn:replicatree:problem:bad-request"
	ProblemTooLarge        = "urn:replicatree:problem:payload-too-large"
	ProblemUnknownSolver   = "urn:replicatree:problem:unknown-solver"
	ProblemUnsupported     = "urn:replicatree:problem:unsupported-request"
	ProblemInfeasible      = "urn:replicatree:problem:infeasible-instance"
	ProblemBudgetExhausted = "urn:replicatree:problem:budget-exhausted"
	ProblemSolveFailed     = "urn:replicatree:problem:solve-failed"
	ProblemVerification    = "urn:replicatree:problem:verification-failed"
	ProblemClientClosed    = "urn:replicatree:problem:client-closed-request"
	ProblemUnknownJob      = "urn:replicatree:problem:unknown-job"
	ProblemOverloaded      = "urn:replicatree:problem:overloaded"
	// Instance-session problems (the /v2/instances endpoints).
	ProblemUnknownInstance    = "urn:replicatree:problem:unknown-instance"
	ProblemHashMismatch       = "urn:replicatree:problem:canonical-hash-mismatch"
	ProblemInfeasibleMutation = "urn:replicatree:problem:infeasible-after-mutation"
	// Certificate problems (the /v2/jobs/{id}/proof/{task} endpoint).
	ProblemUnknownTask   = "urn:replicatree:problem:unknown-task"
	ProblemCertsDisabled = "urn:replicatree:problem:certificates-disabled"
	ProblemJobNotSettled = "urn:replicatree:problem:job-not-settled"
	ProblemCertFailed    = "urn:replicatree:problem:certification-failed"
)

// problem builds a Problem from its parts.
func problem(typ, title string, status int, err error) Problem {
	p := Problem{Type: typ, Title: title, Status: status}
	if err != nil {
		p.Detail = err.Error()
	}
	return p
}

// solveProblem classifies a failed solve onto a Problem via the
// solver sentinels. Verification failures outrank everything (they are
// 5xx even when the client has since disconnected); a dead client
// outranks the rest so aborted solves don't read as bad instances.
func solveProblem(r *http.Request, err error) Problem {
	switch {
	case errors.Is(err, solver.ErrVerification):
		return problem(ProblemVerification, "solution failed verification", http.StatusInternalServerError, err)
	case r.Context().Err() != nil:
		return problem(ProblemClientClosed, "client closed request", statusClientClosed, err)
	case errors.Is(err, solver.ErrUnknownSolver):
		return problem(ProblemUnknownSolver, "unknown solver", http.StatusNotFound, err)
	case errors.Is(err, solver.ErrPolicyUnsupported):
		return problem(ProblemUnsupported, "request unsupported by engine", http.StatusUnprocessableEntity, err)
	case errors.Is(err, solver.ErrInfeasible):
		return problem(ProblemInfeasible, "instance infeasible", http.StatusUnprocessableEntity, err)
	case errors.Is(err, exact.ErrBudget):
		return problem(ProblemBudgetExhausted, "work budget exceeded", http.StatusUnprocessableEntity, err)
	case errors.Is(err, context.DeadlineExceeded):
		return problem(ProblemBudgetExhausted, "solve timed out", http.StatusUnprocessableEntity, err)
	default:
		return problem(ProblemSolveFailed, "solve failed", http.StatusUnprocessableEntity, err)
	}
}

// writeProblem emits a Problem with the RFC 7807 media type.
func (s *Server) writeProblem(w http.ResponseWriter, endpoint string, p Problem) {
	s.metrics.Request(endpoint, p.Status)
	w.Header().Set("Content-Type", "application/problem+json")
	w.WriteHeader(p.Status)
	_ = json.NewEncoder(w).Encode(p) // the status line is already out; nothing to salvage
}

// parseWant maps the wire policy constraint onto solver.Want.
func parseWant(s string) (solver.Want, error) {
	switch strings.ToLower(s) {
	case "", "any":
		return solver.AnyPolicy, nil
	case "single":
		return solver.WantSingle, nil
	case "multiple":
		return solver.WantMultiple, nil
	default:
		return solver.AnyPolicy, fmt.Errorf("unknown policy constraint %q (want \"any\", \"single\" or \"multiple\")", s)
	}
}

// v2Request assembles a solver.Request from wire fields shared by
// solve and batch tasks.
func v2Request(in *core.Instance, policy string, budget int64) (solver.Request, error) {
	want, err := parseWant(policy)
	if err != nil {
		return solver.Request{}, err
	}
	return solver.Request{
		Instance: in,
		Policy:   want,
		Budget:   budget,
	}, nil
}

// maxTimeoutMS is the largest timeout_ms whose conversion to a
// time.Duration does not overflow (about 292 years).
const maxTimeoutMS = int64(math.MaxInt64 / time.Millisecond)

// parseTimeout converts a wire timeout_ms into a duration (0 = none).
// Negative and overflowing values are client errors: unchecked, a
// negative batch timeout would silently mean "no timeout" and an
// overflowing one would wrap into a deadline in the past.
func parseTimeout(ms int64) (time.Duration, error) {
	if ms < 0 {
		return 0, fmt.Errorf("negative timeout_ms %d", ms)
	}
	if ms > maxTimeoutMS {
		return 0, fmt.Errorf("timeout_ms %d exceeds the maximum of %d", ms, maxTimeoutMS)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

func (s *Server) handleSolveV2(w http.ResponseWriter, r *http.Request) {
	const endpoint = "/v2/solve"
	begin := time.Now()
	req, status, err := decodeSolveBody(w, r)
	if err != nil {
		typ := ProblemBadRequest
		if status == http.StatusRequestEntityTooLarge {
			typ = ProblemTooLarge
		}
		s.writeProblem(w, endpoint, problem(typ, "invalid request body", status, err))
		return
	}
	if req.Instance == nil {
		s.writeProblem(w, endpoint, problem(ProblemBadRequest, "invalid request body",
			http.StatusBadRequest, errors.New("missing instance")))
		return
	}
	if req.Solver == "" {
		s.writeProblem(w, endpoint, problem(ProblemBadRequest, "invalid request body",
			http.StatusBadRequest, errors.New("missing solver name (see GET /v2/solvers)")))
		return
	}
	sreq, err := v2Request(req.Instance, req.Policy, req.Budget)
	if err != nil {
		s.writeProblem(w, endpoint, problem(ProblemBadRequest, "invalid request body", http.StatusBadRequest, err))
		return
	}
	timeout, err := parseTimeout(req.TimeoutMS)
	if err != nil {
		s.writeProblem(w, endpoint, problem(ProblemBadRequest, "invalid request body", http.StatusBadRequest, err))
		return
	}
	if timeout > 0 {
		sreq.Deadline = time.Now().Add(timeout)
	}
	eng, err := solver.Lookup(req.Solver)
	if err != nil {
		s.writeProblem(w, endpoint, solveProblem(r, err))
		return
	}
	out, err := s.solveCached(r.Context(), eng, sreq)
	if err != nil {
		s.writeProblem(w, endpoint, solveProblem(r, err))
		return
	}
	rep := out.report
	var c *cert.Certificate
	if req.Certificate {
		// Certification happens here, after the solve returned — the
		// zero-allocation warm path inside Engine.Solve never sees it.
		c, err = solver.Certify(req.Instance, &rep)
		if err != nil {
			s.metrics.CertFailure()
			s.writeProblem(w, endpoint, problem(ProblemCertFailed, "certification failed",
				http.StatusInternalServerError, err))
			return
		}
		s.metrics.CertIssued(1)
	}
	s.writeJSON(w, endpoint, http.StatusOK, SolveResponseV2{
		Solver:      eng.Name(),
		Engine:      rep.Engine,
		Policy:      rep.Policy.String(),
		Hash:        out.hash,
		Replicas:    rep.Solution.NumReplicas(),
		LowerBound:  rep.LowerBound,
		Gap:         rep.Gap,
		Work:        rep.Work,
		Proved:      rep.Proved,
		Verified:    true,
		Cached:      out.cached,
		ElapsedMS:   durMS(time.Since(begin)),
		Churn:       churnDoc(rep.Churn),
		Solution:    rep.Solution,
		Certificate: c,
	})
}

func (s *Server) handleBatchV2(w http.ResponseWriter, r *http.Request) {
	const endpoint = "/v2/batch"
	var req BatchRequestV2
	if status, err := decodeBody(w, r, &req); err != nil {
		typ := ProblemBadRequest
		if status == http.StatusRequestEntityTooLarge {
			typ = ProblemTooLarge
		}
		s.writeProblem(w, endpoint, problem(typ, "invalid request body", status, err))
		return
	}
	if len(req.Tasks) == 0 {
		s.writeProblem(w, endpoint, problem(ProblemBadRequest, "invalid request body",
			http.StatusBadRequest, errors.New("empty task list")))
		return
	}
	if len(req.Tasks) > maxBatchTasks {
		s.writeProblem(w, endpoint, problem(ProblemTooLarge, "batch too large", http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d tasks exceeds the limit of %d (split into multiple jobs)", len(req.Tasks), maxBatchTasks)))
		return
	}
	if req.Workers < 0 {
		s.writeProblem(w, endpoint, problem(ProblemBadRequest, "invalid request body",
			http.StatusBadRequest, fmt.Errorf("negative workers %d", req.Workers)))
		return
	}
	timeout, err := parseTimeout(req.TimeoutMS)
	if err != nil {
		s.writeProblem(w, endpoint, problem(ProblemBadRequest, "invalid request body", http.StatusBadRequest, err))
		return
	}
	// Workers is client-controlled; clamp it so one job can never
	// spawn more solve goroutines than the machine has cores.
	workers := req.Workers
	if cores := runtime.GOMAXPROCS(0); workers > cores {
		workers = cores
	}
	tasks := make([]solver.Task, len(req.Tasks))
	for i, bt := range req.Tasks {
		if bt.Instance == nil {
			s.writeProblem(w, endpoint, problem(ProblemBadRequest, "invalid request body",
				http.StatusBadRequest, fmt.Errorf("task %d: missing instance", i)))
			return
		}
		eng, err := solver.Lookup(bt.Solver)
		if err != nil {
			s.writeProblem(w, endpoint, problem(ProblemUnknownSolver, "unknown solver",
				http.StatusNotFound, fmt.Errorf("task %d: %w", i, err)))
			return
		}
		sreq, err := v2Request(bt.Instance, bt.Policy, bt.Budget)
		if err != nil {
			s.writeProblem(w, endpoint, problem(ProblemBadRequest, "invalid request body",
				http.StatusBadRequest, fmt.Errorf("task %d: %w", i, err)))
			return
		}
		tasks[i] = solver.Task{
			ID:      bt.ID,
			Engine:  &cachingEngine{server: s, inner: eng},
			Request: sreq,
		}
	}
	opt := solver.Options{Workers: workers, Timeout: timeout}
	id, err := s.jobs.Submit(tasks, opt, req.Certificates)
	if err != nil {
		s.writeProblem(w, endpoint, problem(ProblemOverloaded, "job queue unavailable", http.StatusServiceUnavailable, err))
		return
	}
	s.writeJSON(w, endpoint, http.StatusAccepted, BatchAccepted{
		JobID:     id,
		StatusURL: "/v2/jobs/" + id,
		Tasks:     len(tasks),
	})
}

func (s *Server) handleJobV2(w http.ResponseWriter, r *http.Request) {
	const endpoint = "/v2/jobs"
	id := r.PathValue("id")
	resp, ok := s.jobs.GetV2(id)
	if !ok {
		s.writeProblem(w, endpoint, problem(ProblemUnknownJob, "unknown job",
			http.StatusNotFound, fmt.Errorf("unknown job %q", id)))
		return
	}
	s.writeJSON(w, endpoint, http.StatusOK, resp)
}

func (s *Server) handleProofV2(w http.ResponseWriter, r *http.Request) {
	const endpoint = "/v2/jobs/proof"
	resp, prob := s.jobs.Proof(r.PathValue("id"), r.PathValue("task"))
	if prob != nil {
		s.writeProblem(w, endpoint, *prob)
		return
	}
	s.metrics.CertProofServed()
	s.writeJSON(w, endpoint, http.StatusOK, resp)
}

func (s *Server) handleSolversV2(w http.ResponseWriter, r *http.Request) {
	catalog := solver.Catalog()
	docs := make([]CapabilityDoc, len(catalog))
	for i, c := range catalog {
		docs[i] = CapabilityDoc{
			Name:         c.Name,
			Policy:       c.Policy.String(),
			Exact:        c.Exact,
			SupportsDMax: c.SupportsDMax,
			Delta:        c.Delta,
			Cost:         c.Cost.String(),
			Description:  c.Description,
		}
	}
	s.writeJSON(w, "/v2/solvers", http.StatusOK, docs)
}
