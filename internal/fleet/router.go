package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"replicatree/internal/core"
	"replicatree/internal/service"
)

// Fleet-level problem types, extending the service's RFC 7807
// vocabulary: emitted by the router itself when no worker could take
// a request. Worker-produced problems pass through untouched.
const (
	// ProblemFleetUnavailable: every routing candidate (owner and its
	// ring successors, up to the failover bound) was dead, timed out
	// or errored.
	ProblemFleetUnavailable = "urn:replicatree:problem:fleet-unavailable"
	// ProblemJobLost: the worker that accepted a batch job has since
	// died; its in-memory results are gone.
	ProblemJobLost = "urn:replicatree:problem:job-lost"
)

// statusClientClosed mirrors the service's 499 convention.
const statusClientClosed = 499

// Router is the fleet's front-end: it speaks the same /v2 solve
// contract as a single replicad, consistent-hash-routes each request
// to its owner worker and fails over to ring successors on worker
// death, error or attempt timeout. Responses come verbatim from the
// worker that served the request, so clients cannot tell a fleet from
// a single daemon.
//
//	POST /v2/solve   — routed by the instance's canonical hash
//	POST /v2/batch   — routed by the first task's canonical hash
//	GET  /v2/jobs/{id} — routed to the worker that accepted the job
//	GET  /v2/solvers — any live worker (the registry is process-wide)
//	GET  /healthz    — fleet liveness: member and alive counts
//	GET  /metrics    — fleet.Snapshot: per-worker tiers, failovers, gossip
type Router struct {
	fleet   *Fleet
	mux     *http.ServeMux
	metrics *service.Metrics

	jobMu    sync.Mutex
	jobOwner map[string]string
	jobFIFO  []string
}

// jobOwnerCap bounds the job→worker routing table; the oldest
// mappings fall off first (matching the workers' own retention).
const jobOwnerCap = 8192

// Router returns the fleet's front-end handler (one per fleet).
func (f *Fleet) Router() *Router {
	f.routerOnce.Do(func() {
		rt := &Router{
			fleet:    f,
			mux:      http.NewServeMux(),
			metrics:  service.NewMetrics(),
			jobOwner: make(map[string]string),
		}
		rt.mux.HandleFunc("POST /v2/solve", rt.handleSolve)
		rt.mux.HandleFunc("POST /v2/batch", rt.handleBatch)
		rt.mux.HandleFunc("GET /v2/jobs/{id}", rt.handleJob)
		rt.mux.HandleFunc("GET /v2/jobs/{id}/proof/{task}", rt.handleProof)
		rt.mux.HandleFunc("GET /v2/solvers", rt.handleSolvers)
		rt.mux.HandleFunc("GET /healthz", rt.handleHealthz)
		rt.mux.HandleFunc("GET /metrics", rt.handleMetrics)
		f.router = rt
	})
	return f.router
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// recorder buffers one worker attempt's response so the router can
// inspect the status before deciding to relay or fail over.
type recorder struct {
	header http.Header
	status int
	wrote  bool
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{header: make(http.Header)} }

func (rec *recorder) Header() http.Header { return rec.header }

func (rec *recorder) WriteHeader(code int) {
	if !rec.wrote {
		rec.status = code
		rec.wrote = true
	}
}

func (rec *recorder) Write(p []byte) (int, error) {
	if !rec.wrote {
		rec.WriteHeader(http.StatusOK)
	}
	return rec.body.Write(p)
}

// candidates returns the workers to try for key, in ring-successor
// order (the owner first), bounded by the failover budget. An empty
// key — the request carries no routable instance — falls back to the
// first routable workers in construction order, which keeps error
// rendering deterministic.
func (rt *Router) candidates(key string, n int) []*Worker {
	var ids []string
	if key != "" {
		ids = rt.fleet.ring.Successors(key, n)
	} else {
		ids = rt.fleet.WorkerIDs()
	}
	out := make([]*Worker, 0, n)
	for _, id := range ids {
		if len(out) == n {
			break
		}
		if w := rt.fleet.Worker(id); w != nil {
			out = append(out, w)
		}
	}
	return out
}

// forward routes one buffered request to the key's owner, failing
// over to ring successors on worker death, 5xx or attempt timeout.
// It returns the worker that produced the final response and its
// recorder; a nil recorder means no worker wrote any response (the
// caller emits a fleet-level problem).
func (rt *Router) forward(r *http.Request, body []byte, key string) (*Worker, *recorder) {
	attempts := 1 + rt.fleet.cfg.FailoverAttempts
	var lastWorker *Worker
	var last *recorder
	for i, wk := range rt.candidates(key, attempts) {
		if i > 0 {
			rt.fleet.failovers.Add(1)
		}
		if !wk.routable() {
			continue
		}
		actx, cancel := context.WithTimeout(r.Context(), rt.fleet.cfg.AttemptTimeout)
		req := r.Clone(actx)
		if body != nil {
			req.Body = io.NopCloser(bytes.NewReader(body))
			req.ContentLength = int64(len(body))
		}
		rec := newRecorder()
		served := wk.serve(rec, req)
		cancel()
		if !served {
			continue // died between the routable check and dispatch
		}
		lastWorker, last = wk, rec
		if r.Context().Err() != nil {
			// The *client* is gone: relay whatever the worker rendered
			// (usually its 499) instead of burning successors.
			return wk, rec
		}
		if rec.status >= 500 || rec.status == statusClientClosed {
			// Worker error or attempt timeout (the worker saw our
			// per-attempt deadline as a cancelled client) → successor.
			continue
		}
		return wk, rec
	}
	return lastWorker, last
}

// relay copies a worker's buffered response to the client.
func (rt *Router) relay(w http.ResponseWriter, endpoint string, rec *recorder) {
	rt.metrics.Request(endpoint, rec.status)
	for k, vs := range rec.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(rec.status)
	_, _ = w.Write(rec.body.Bytes())
}

// problem emits a router-level RFC 7807 document.
func (rt *Router) problem(w http.ResponseWriter, endpoint, typ, title string, status int, err error) {
	p := service.Problem{Type: typ, Title: title, Status: status}
	if err != nil {
		p.Detail = err.Error()
	}
	rt.metrics.Request(endpoint, status)
	w.Header().Set("Content-Type", "application/problem+json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(p)
}

// dispatch is the shared solve/batch path: buffer the body, extract
// the routing key, forward with failover, surface total failure as a
// fleet problem. It returns the serving worker and its response for
// endpoint-specific bookkeeping (nil on failure).
func (rt *Router) dispatch(w http.ResponseWriter, r *http.Request, endpoint string, key func([]byte) string) (*Worker, *recorder) {
	body, release, err := service.ReadBody(w, r)
	defer release()
	if err != nil {
		status, typ := http.StatusBadRequest, service.ProblemBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status, typ = http.StatusRequestEntityTooLarge, service.ProblemTooLarge
			err = fmt.Errorf("request body exceeds %d bytes", mbe.Limit)
		}
		rt.problem(w, endpoint, typ, "invalid request body", status, err)
		return nil, nil
	}
	wk, rec := rt.forward(r, body, key(body))
	if rec == nil {
		rt.problem(w, endpoint, ProblemFleetUnavailable, "no worker available",
			http.StatusBadGateway, fmt.Errorf("all %d routing candidates failed", 1+rt.fleet.cfg.FailoverAttempts))
		rt.fleet.unroutable.Add(1)
		return nil, nil
	}
	rt.relay(w, endpoint, rec)
	return wk, rec
}

// solveKey extracts the canonical instance hash from a solve body
// ("" when absent or malformed — the worker then renders the error).
func solveKey(body []byte) string {
	req, err := service.DecodeSolveRequest(body)
	if err != nil || req.Instance == nil {
		return ""
	}
	return req.Instance.CanonicalHash()
}

// batchKey routes a whole batch by its first task's instance: one
// job, one worker, one poll target. Tasks owned by other workers are
// served through that worker's tier-2 peer lookup.
func batchKey(body []byte) string {
	var probe struct {
		Tasks []struct {
			Instance *core.Instance `json:"instance"`
		} `json:"tasks"`
	}
	if json.Unmarshal(body, &probe) != nil {
		return ""
	}
	for _, t := range probe.Tasks {
		if t.Instance != nil {
			return t.Instance.CanonicalHash()
		}
	}
	return ""
}

func (rt *Router) handleSolve(w http.ResponseWriter, r *http.Request) {
	rt.dispatch(w, r, "/v2/solve", solveKey)
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	wk, rec := rt.dispatch(w, r, "/v2/batch", batchKey)
	if wk == nil || rec == nil || rec.status != http.StatusAccepted {
		return
	}
	var acc service.BatchAccepted
	if json.Unmarshal(rec.body.Bytes(), &acc) != nil || acc.JobID == "" {
		return
	}
	rt.jobMu.Lock()
	if _, dup := rt.jobOwner[acc.JobID]; !dup {
		rt.jobOwner[acc.JobID] = wk.ID()
		rt.jobFIFO = append(rt.jobFIFO, acc.JobID)
		for len(rt.jobFIFO) > jobOwnerCap {
			delete(rt.jobOwner, rt.jobFIFO[0])
			rt.jobFIFO = rt.jobFIFO[1:]
		}
	}
	rt.jobMu.Unlock()
}

func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	rt.serveJobScoped(w, r, "/v2/jobs")
}

// handleProof relays GET /v2/jobs/{id}/proof/{task} — a certificate
// plus Merkle inclusion proof — through the same owner-routing as job
// polls: certificates and their Merkle tree live in the owning
// worker's job table, so the proof must come from the worker that
// settled the job.
func (rt *Router) handleProof(w http.ResponseWriter, r *http.Request) {
	rt.serveJobScoped(w, r, "/v2/jobs/proof")
}

// serveJobScoped routes a job-scoped GET (poll or proof) to the
// worker that accepted the job, broadcasting when the ownership table
// has no entry (router restart, aged-out mapping).
func (rt *Router) serveJobScoped(w http.ResponseWriter, r *http.Request, endpoint string) {
	id := r.PathValue("id")
	rt.jobMu.Lock()
	owner, known := rt.jobOwner[id]
	rt.jobMu.Unlock()
	if known {
		wk := rt.fleet.Worker(owner)
		if wk == nil || !wk.peekable() {
			rt.problem(w, endpoint, ProblemJobLost, "job lost with worker",
				http.StatusNotFound, fmt.Errorf("job %q was owned by dead worker %q", id, owner))
			return
		}
		rec := newRecorder()
		if wk.serve(rec, r) {
			rt.relay(w, endpoint, rec)
			return
		}
		rt.problem(w, endpoint, ProblemJobLost, "job lost with worker",
			http.StatusNotFound, fmt.Errorf("job %q was owned by dead worker %q", id, owner))
		return
	}
	// Unknown mapping (router restarted, or the table aged it out):
	// broadcast — job IDs are unique across workers.
	var last *recorder
	for _, wid := range rt.fleet.WorkerIDs() {
		wk := rt.fleet.Worker(wid)
		if wk == nil || !wk.peekable() {
			continue
		}
		rec := newRecorder()
		if !wk.serve(rec, r) {
			continue
		}
		last = rec
		if rec.status != http.StatusNotFound {
			// Any non-404 answer comes from a worker that knows the
			// job — including a proof endpoint's 409 (job not settled /
			// certificates disabled), which must reach the client
			// instead of being masked by another worker's 404.
			break
		}
	}
	if last == nil {
		rt.problem(w, endpoint, ProblemFleetUnavailable, "no worker available",
			http.StatusBadGateway, errors.New("no live worker to answer the poll"))
		return
	}
	rt.relay(w, endpoint, last)
}

func (rt *Router) handleSolvers(w http.ResponseWriter, r *http.Request) {
	const endpoint = "/v2/solvers"
	_, rec := rt.forward(r, nil, "")
	if rec == nil {
		rt.problem(w, endpoint, ProblemFleetUnavailable, "no worker available",
			http.StatusBadGateway, errors.New("no live worker"))
		return
	}
	rt.relay(w, endpoint, rec)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := rt.fleet.Snapshot()
	rt.writeJSON(w, "/healthz", http.StatusOK, map[string]any{
		"status":  "ok",
		"workers": snap.Workers,
		"alive":   snap.Alive,
		"ring":    rt.fleet.ring.Members(),
	})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := rt.fleet.Snapshot()
	snap.Router = rt.metrics.Snapshot()
	rt.writeJSON(w, "/metrics", http.StatusOK, snap)
}

func (rt *Router) writeJSON(w http.ResponseWriter, endpoint string, status int, v any) {
	rt.metrics.Request(endpoint, status)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
