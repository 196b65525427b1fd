// Package service exposes the solver registry as an HTTP/JSON daemon:
// placement-as-a-service. The /v2 surface mirrors the solver package's
// typed Request/Report contract. Endpoints:
//
//	POST /v2/solve    — solve one instance (policy/budget/timeout)
//	POST /v2/batch    — enqueue an async job over many typed tasks
//	GET  /v2/jobs/{id} — poll a batch job with full per-task reports
//	GET  /v2/jobs/{id}/proof/{task} — one task's certificate + inclusion proof
//	GET  /v2/solvers  — every engine's Capabilities document
//	PUT    /v2/instances/{id}          — open a stateful instance session
//	POST   /v2/instances/{id}/mutate   — mutate a session, re-solve, report churn
//	GET    /v2/instances/{id}/solution — the session's current placement
//	DELETE /v2/instances/{id}          — drop a session
//	GET  /healthz     — liveness
//	GET  /metrics     — request counts, cache hit rate, per-solver latency
//
// Errors are RFC 7807 application/problem+json documents typed by the
// solver sentinels (unknown solver → 404, unsupported request or
// infeasible instance → 422).
//
// The hot path is the result cache: instances are keyed by their
// canonical hash (core.Instance.CanonicalHash) so a repeated placement
// of the same tree is served from an LRU in memory instead of
// re-solved. The cache stores full solve reports and serves both
// /v2/solve and batch tasks. Every solution — cached, fresh or from an
// instance session — has passed the engine seam's verifier before it
// leaves the process (a failure is solver.ErrVerification, a 500).
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"replicatree/internal/solver"
)

// Options tunes a Server.
type Options struct {
	// CacheSize bounds the result cache in entries; 0 disables caching.
	CacheSize int
	// Cache, when non-nil, replaces the default local LRU result
	// cache (NewCache(CacheSize)) — the seam the fleet's two-tier
	// distributed cache plugs into. CacheSize is ignored when set.
	Cache ResultCache
	// JobWorkers bounds the number of concurrently running batch jobs
	// (default 1); JobQueue bounds the number of queued jobs (default
	// 64); JobRetention bounds retained finished jobs (default 1024).
	JobWorkers   int
	JobQueue     int
	JobRetention int
	// MaxInstances bounds live instance sessions (default
	// DefaultMaxInstances); InstanceTTL evicts sessions idle for that
	// long (default DefaultInstanceTTL).
	MaxInstances int
	InstanceTTL  time.Duration
}

// DefaultCacheSize is the cache bound used by cmd/replicad unless
// overridden.
const DefaultCacheSize = 1024

// Server is the placement service. Create one with New, mount it as
// an http.Handler, and Close it on shutdown.
type Server struct {
	cache     ResultCache
	metrics   *Metrics
	jobs      *JobManager
	instances *instanceStore
	mux       *http.ServeMux
	started   time.Time
}

// New assembles a Server.
func New(opt Options) *Server {
	cache := opt.Cache
	if cache == nil {
		cache = NewCache(opt.CacheSize)
	}
	s := &Server{
		cache:     cache,
		metrics:   NewMetrics(),
		jobs:      NewJobManager(opt.JobWorkers, opt.JobQueue, opt.JobRetention),
		instances: newInstanceStore(opt.MaxInstances, opt.InstanceTTL),
		mux:       http.NewServeMux(),
		started:   time.Now(),
	}
	s.jobs.metrics = s.metrics
	s.mux.HandleFunc("POST /v2/solve", s.handleSolveV2)
	s.mux.HandleFunc("POST /v2/batch", s.handleBatchV2)
	s.mux.HandleFunc("GET /v2/jobs/{id}", s.handleJobV2)
	s.mux.HandleFunc("GET /v2/jobs/{id}/proof/{task}", s.handleProofV2)
	s.mux.HandleFunc("GET /v2/solvers", s.handleSolversV2)
	s.mux.HandleFunc("PUT /v2/instances/{id}", s.handleInstancePut)
	s.mux.HandleFunc("POST /v2/instances/{id}/mutate", s.handleInstanceMutate)
	s.mux.HandleFunc("GET /v2/instances/{id}/solution", s.handleInstanceSolution)
	s.mux.HandleFunc("DELETE /v2/instances/{id}", s.handleInstanceDelete)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close shuts the job pool down and drops every instance session;
// in-flight jobs are cancelled.
func (s *Server) Close() {
	s.jobs.Close()
	s.instances.close()
}

// CacheStats exposes the cache counters (also part of /metrics).
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// MetricsSnapshot exposes the request/latency counters, so an
// embedding front-end (the fleet router) can aggregate per-worker
// service metrics without scraping its own /metrics endpoint.
func (s *Server) MetricsSnapshot() MetricsSnapshot { return s.metrics.Snapshot() }

// maxBodyBytes caps request bodies: a long-running daemon must not
// let one client balloon its memory with an unbounded JSON stream.
// 64 MiB comfortably fits multi-million-node instances.
const maxBodyBytes = 64 << 20

// maxBatchTasks caps one job's task list: results are retained for
// polling, so an unbounded batch would pin unbounded memory.
const maxBatchTasks = 4096

// maxMutations caps one mutate request's op list: the ops are applied
// under the session's lock, so an unbounded list would hold the
// session for unbounded time.
const maxMutations = 4096

// statusClientClosed is nginx's conventional code for "client closed
// request"; /metrics buckets it separately so aborted solves do not
// masquerade as malformed requests.
const statusClientClosed = 499

// decodeBody decodes a JSON request body into v under the size cap,
// returning the HTTP status to use on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		return bodyError(err)
	}
	return http.StatusOK, nil
}

// bodyError maps a failed body decode onto its HTTP status and the
// error to report.
func bodyError(err error) (int, error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit)
	}
	return http.StatusBadRequest, fmt.Errorf("invalid request: %w", err)
}

// solveOutcome is the result of one cached-or-fresh solve: the full
// engine report plus the cache coordinates.
type solveOutcome struct {
	report solver.Report
	hash   string
	cached bool
}

// requestVariant canonically encodes the request fields that can
// change a solve's outcome — the policy constraint and the work
// budget — so differently constrained requests never share a cache
// line. Unconstrained requests encode to "", so their cache key is the
// bare canonical hash — the ring key the fleet's shardKey reduces
// every variant to.
func requestVariant(req solver.Request) string {
	if req.Policy == solver.AnyPolicy && req.Budget == 0 {
		return ""
	}
	return fmt.Sprintf("p=%d;b=%d", req.Policy, req.Budget)
}

// solveCached is the shared engine path of the solve and batch
// endpoints: canonical hash, cache lookup, engine solve on miss (the
// engine verifies its answer), fill. The cache key is the dispatched
// engine name plus the hash and request variant, so solves and batch
// tasks share entries for the same (solver, instance) while
// constrained requests get their own lines.
func (s *Server) solveCached(ctx context.Context, eng solver.Engine, req solver.Request) (solveOutcome, error) {
	out := solveOutcome{hash: req.Instance.CanonicalHash()}
	key := out.hash
	if v := requestVariant(req); v != "" {
		key += "|" + v // the hash is hex, so "|" cannot collide
	}
	name := eng.Name()
	if rep, ok := s.cache.Get(name, key); ok {
		out.report, out.cached = rep, true
		return out, nil
	}
	begin := time.Now()
	rep, err := eng.Solve(ctx, req)
	if err != nil {
		return out, err
	}
	s.metrics.Solve(name, time.Since(begin))
	s.cache.Put(name, key, rep)
	out.report = rep
	return out, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, "/healthz", http.StatusOK, map[string]any{
		"status":    "ok",
		"solvers":   len(solver.List()),
		"uptime_ms": durMS(time.Since(s.started)),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := struct {
		MetricsSnapshot
		Cache CacheStats `json:"cache"`
	}{s.metrics.Snapshot(), s.cache.Stats()}
	s.writeJSON(w, "/metrics", http.StatusOK, snap)
}

func (s *Server) writeJSON(w http.ResponseWriter, endpoint string, status int, v any) {
	s.metrics.Request(endpoint, status)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // the status line is already out; nothing to salvage
}

// cachingEngine routes a batch task's Solve through the server's
// cache path and remembers whether it hit, so job results can report
// per-task cache effectiveness. The flag is atomic: a
// timed-out batch task's solve goroutine is abandoned by
// solver.Batch and may still be writing it when a poll renders
// results.
type cachingEngine struct {
	server *Server
	inner  solver.Engine
	cached atomic.Bool
}

func (c *cachingEngine) Name() string                      { return c.inner.Name() }
func (c *cachingEngine) Capabilities() solver.Capabilities { return c.inner.Capabilities() }

func (c *cachingEngine) Solve(ctx context.Context, req solver.Request) (solver.Report, error) {
	out, err := c.server.solveCached(ctx, c.inner, req)
	if err != nil {
		return solver.Report{}, err
	}
	c.cached.Store(out.cached)
	return out.report, nil
}

// LastCached implements cachedReporter.
func (c *cachingEngine) LastCached() bool { return c.cached.Load() }
