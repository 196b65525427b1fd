package service

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"replicatree/internal/core"
	"replicatree/internal/delta"
	"replicatree/internal/multiple"
	"replicatree/internal/solver"
)

// The /v2/instances surface is the stateful counterpart of /v2/solve:
// a client PUTs an instance once, then streams typed mutations against
// the resulting session and gets back fresh placements plus the churn
// relative to the previous one, without re-uploading or re-solving
// from scratch. Sessions are keyed by the instance's canonical hash
// (the same identity the result cache uses), bounded in number, and
// expire after a TTL of inactivity.
//
//	PUT    /v2/instances/{id}          — create (or replace) a session
//	POST   /v2/instances/{id}/mutate   — apply mutations, re-solve
//	GET    /v2/instances/{id}/solution — current placement (solves on demand)
//	DELETE /v2/instances/{id}          — drop the session

// Instance-session defaults used by cmd/replicad unless overridden.
const (
	// DefaultMaxInstances bounds concurrently live sessions; the least
	// recently used session is evicted when a new PUT would exceed it.
	DefaultMaxInstances = 256
	// DefaultInstanceTTL evicts sessions idle for this long.
	DefaultInstanceTTL = 15 * time.Minute
)

// InstancePutRequest is the body of PUT /v2/instances/{id}.
type InstancePutRequest struct {
	// Solver is a registry name; delta-capable engines additionally
	// honour fail_server mutations.
	Solver string `json:"solver"`
	// Instance is the problem instance; its canonical hash must equal
	// the {id} path element (409 otherwise).
	Instance *core.Instance `json:"instance"`
}

// InstanceDoc describes one live session — the body of a successful
// PUT and the session header of mutate/solution responses.
type InstanceDoc struct {
	ID     string `json:"id"`
	Solver string `json:"solver"`
	Nodes  int    `json:"nodes"`
	W      int64  `json:"w"`
	// DMax is the instance's distance bound, core.NoDistance for none.
	// As in the instance codec, "dmax" is absent exactly for NoD, so a
	// bound of 0 is written as 0.
	DMax int64 `json:"dmax"`
	// Solved reports whether the session holds a placement yet.
	Solved bool `json:"solved"`
	// TTLMS is the idle lifetime; each request against the session
	// resets the clock.
	TTLMS float64 `json:"ttl_ms"`
}

// MarshalJSON omits "dmax" when DMax is core.NoDistance.
func (d InstanceDoc) MarshalJSON() ([]byte, error) {
	type plain InstanceDoc
	if d.DMax != core.NoDistance {
		return json.Marshal(plain(d))
	}
	// The outer, nil DMax hides the embedded one.
	return json.Marshal(struct {
		plain
		DMax *int64 `json:"dmax,omitempty"`
	}{plain: plain(d)})
}

// UnmarshalJSON reads an absent "dmax" as core.NoDistance.
func (d *InstanceDoc) UnmarshalJSON(data []byte) error {
	type plain InstanceDoc
	p := plain{DMax: core.NoDistance}
	if err := json.Unmarshal(data, &p); err != nil {
		return err
	}
	*d = InstanceDoc(p)
	return nil
}

// MutateRequest is the body of POST /v2/instances/{id}/mutate: a batch
// of typed mutations, applied in order before one re-solve.
type MutateRequest struct {
	Mutations []delta.Mutation `json:"mutations"`
}

// ChurnDoc is the wire form of multiple.Churn: what changed between
// the previous placement and this one.
type ChurnDoc struct {
	// Added and Removed list replica sites that appeared/disappeared.
	Added   []int32 `json:"added"`
	Removed []int32 `json:"removed"`
	// MovedRequests totals the request volume newly assigned to a
	// different server than before.
	MovedRequests int64 `json:"moved_requests"`
}

func churnDoc(ch *multiple.Churn) *ChurnDoc {
	if ch == nil {
		return nil
	}
	doc := &ChurnDoc{
		Added:         make([]int32, len(ch.Added)),
		Removed:       make([]int32, len(ch.Removed)),
		MovedRequests: ch.MovedRequests,
	}
	for i, id := range ch.Added {
		doc.Added[i] = int32(id)
	}
	for i, id := range ch.Removed {
		doc.Removed[i] = int32(id)
	}
	return doc
}

// InstanceSolveResponse is the body of a successful mutate or solution
// request: the session header plus the placement in the /v2 report
// shape, plus the churn against the session's previous placement.
type InstanceSolveResponse struct {
	Instance   InstanceDoc    `json:"instance"`
	Engine     string         `json:"engine"`
	Policy     string         `json:"policy"`
	Replicas   int            `json:"replicas"`
	LowerBound int            `json:"lower_bound"`
	Gap        float64        `json:"gap"`
	Proved     bool           `json:"proved"`
	ElapsedMS  float64        `json:"elapsed_ms"`
	Churn      *ChurnDoc      `json:"churn,omitempty"`
	Solution   *core.Solution `json:"solution"`
}

// instanceEntry is one live session plus its LRU bookkeeping.
type instanceEntry struct {
	id       string
	session  *delta.Session
	el       *list.Element
	deadline time.Time
}

// instanceStore is the TTL-evicting, size-bounded session registry.
// Lookups refresh both the LRU position and the TTL deadline; a
// background janitor sweeps expired sessions so idle ones release
// their pooled scratch even without traffic.
type instanceStore struct {
	mu   sync.Mutex
	cap  int
	ttl  time.Duration
	ll   *list.List // front = most recently used
	m    map[string]*instanceEntry
	done chan struct{}

	evictions uint64
}

func newInstanceStore(capacity int, ttl time.Duration) *instanceStore {
	if capacity <= 0 {
		capacity = DefaultMaxInstances
	}
	if ttl <= 0 {
		ttl = DefaultInstanceTTL
	}
	st := &instanceStore{
		cap:  capacity,
		ttl:  ttl,
		ll:   list.New(),
		m:    make(map[string]*instanceEntry),
		done: make(chan struct{}),
	}
	go st.janitor()
	return st
}

// janitor sweeps expired sessions. The period is a fraction of the
// TTL so an expired session lingers briefly at most.
func (st *instanceStore) janitor() {
	period := st.ttl / 4
	if period < time.Second {
		period = time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-st.done:
			return
		case now := <-t.C:
			st.sweep(now)
		}
	}
}

func (st *instanceStore) sweep(now time.Time) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, e := range st.m {
		if now.After(e.deadline) {
			st.drop(e)
		}
	}
}

// drop removes an entry and releases its session. Caller holds st.mu.
func (st *instanceStore) drop(e *instanceEntry) {
	st.ll.Remove(e.el)
	delete(st.m, e.id)
	e.session.Close()
	st.evictions++
}

// put registers a session under id, replacing any existing session
// with that id and evicting the least recently used session when the
// store is full.
func (st *instanceStore) put(id string, s *delta.Session) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if old, ok := st.m[id]; ok {
		st.drop(old)
		st.evictions-- // replacement, not pressure
	}
	e := &instanceEntry{id: id, session: s, deadline: time.Now().Add(st.ttl)}
	e.el = st.ll.PushFront(e)
	st.m[id] = e
	for st.ll.Len() > st.cap {
		st.drop(st.ll.Back().Value.(*instanceEntry))
	}
}

// get returns the live session for id, refreshing its LRU slot and
// TTL deadline. Expired sessions are dropped on contact.
func (st *instanceStore) get(id string) (*delta.Session, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.m[id]
	if !ok {
		return nil, false
	}
	if time.Now().After(e.deadline) {
		st.drop(e)
		return nil, false
	}
	e.deadline = time.Now().Add(st.ttl)
	st.ll.MoveToFront(e.el)
	return e.session, true
}

// remove drops the session for id, reporting whether it existed.
func (st *instanceStore) remove(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.m[id]
	if !ok {
		return false
	}
	st.drop(e)
	st.evictions--
	return true
}

// close drops every session and stops the janitor.
func (st *instanceStore) close() {
	close(st.done)
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, e := range st.m {
		st.ll.Remove(e.el)
		delete(st.m, e.id)
		e.session.Close()
	}
}

func (st *instanceStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ll.Len()
}

func (s *Server) instanceDoc(sess *delta.Session) InstanceDoc {
	nodes, w, dmax := sess.Shape()
	_, solved := sess.Report()
	return InstanceDoc{
		ID:     sess.ID(),
		Solver: sess.Engine(),
		Nodes:  nodes,
		W:      w,
		DMax:   dmax,
		Solved: solved,
		TTLMS:  durMS(s.instances.ttl),
	}
}

func (s *Server) handleInstancePut(w http.ResponseWriter, r *http.Request) {
	const endpoint = "/v2/instances"
	id := r.PathValue("id")
	var req InstancePutRequest
	if status, err := decodeBody(w, r, &req); err != nil {
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
	if err := req.Instance.Validate(); err != nil {
		s.writeProblem(w, endpoint, problem(ProblemBadRequest, "invalid instance", http.StatusBadRequest, err))
		return
	}
	// The path id is the session's identity contract: it must be the
	// canonical hash of the uploaded instance, so a client holding an
	// id can always re-derive which instance it names.
	if hash := req.Instance.CanonicalHash(); hash != id {
		s.writeProblem(w, endpoint, problem(ProblemHashMismatch, "canonical hash mismatch", http.StatusConflict,
			fmt.Errorf("path id %q does not match the instance's canonical hash %q", id, hash)))
		return
	}
	sess, err := delta.New(req.Instance, req.Solver)
	if err != nil {
		s.writeProblem(w, endpoint, solveProblem(r, err))
		return
	}
	s.instances.put(id, sess)
	s.writeJSON(w, endpoint, http.StatusCreated, s.instanceDoc(sess))
}

// lookupInstance resolves {id} onto a live session or writes the 404
// problem.
func (s *Server) lookupInstance(w http.ResponseWriter, endpoint string, id string) (*delta.Session, bool) {
	sess, ok := s.instances.get(id)
	if !ok {
		s.writeProblem(w, endpoint, problem(ProblemUnknownInstance, "unknown instance session", http.StatusNotFound,
			fmt.Errorf("no session %q (expired, evicted or never created; PUT /v2/instances/{hash} first)", id)))
	}
	return sess, ok
}

// writeInstanceSolve renders one resolve outcome; failures map
// infeasibility onto the 422 mutation problem.
func (s *Server) writeInstanceSolve(w http.ResponseWriter, r *http.Request, endpoint string, sess *delta.Session, rep solver.Report, err error) {
	if err != nil {
		if errors.Is(err, solver.ErrInfeasible) {
			s.writeProblem(w, endpoint, problem(ProblemInfeasibleMutation, "instance infeasible after mutation",
				http.StatusUnprocessableEntity, err))
			return
		}
		s.writeProblem(w, endpoint, solveProblem(r, err))
		return
	}
	s.writeJSON(w, endpoint, http.StatusOK, InstanceSolveResponse{
		Instance:   s.instanceDoc(sess),
		Engine:     rep.Engine,
		Policy:     rep.Policy.String(),
		Replicas:   rep.Solution.NumReplicas(),
		LowerBound: rep.LowerBound,
		Gap:        rep.Gap,
		Proved:     rep.Proved,
		ElapsedMS:  durMS(rep.Elapsed),
		Churn:      churnDoc(rep.Churn),
		Solution:   rep.Solution,
	})
}

func (s *Server) handleInstanceMutate(w http.ResponseWriter, r *http.Request) {
	const endpoint = "/v2/instances/mutate"
	var req MutateRequest
	if status, err := decodeBody(w, r, &req); err != nil {
		typ := ProblemBadRequest
		if status == http.StatusRequestEntityTooLarge {
			typ = ProblemTooLarge
		}
		s.writeProblem(w, endpoint, problem(typ, "invalid request body", status, err))
		return
	}
	if len(req.Mutations) > maxMutations {
		s.writeProblem(w, endpoint, problem(ProblemTooLarge, "mutation list too large", http.StatusRequestEntityTooLarge,
			fmt.Errorf("%d mutations exceed the limit of %d (split into multiple requests)", len(req.Mutations), maxMutations)))
		return
	}
	sess, ok := s.lookupInstance(w, endpoint, r.PathValue("id"))
	if !ok {
		return
	}
	if err := sess.Apply(req.Mutations); err != nil {
		s.writeProblem(w, endpoint, problem(ProblemBadRequest, "invalid mutation", http.StatusBadRequest, err))
		return
	}
	rep, err := sess.Resolve(r.Context())
	s.writeInstanceSolve(w, r, endpoint, sess, rep, err)
}

func (s *Server) handleInstanceSolution(w http.ResponseWriter, r *http.Request) {
	const endpoint = "/v2/instances/solution"
	sess, ok := s.lookupInstance(w, endpoint, r.PathValue("id"))
	if !ok {
		return
	}
	// Serve the held placement when one exists; otherwise this is the
	// session's first solve.
	if rep, solved := sess.Report(); solved {
		s.writeInstanceSolve(w, r, endpoint, sess, rep, nil)
		return
	}
	rep, err := sess.Resolve(r.Context())
	s.writeInstanceSolve(w, r, endpoint, sess, rep, err)
}

func (s *Server) handleInstanceDelete(w http.ResponseWriter, r *http.Request) {
	const endpoint = "/v2/instances"
	id := r.PathValue("id")
	if !s.instances.remove(id) {
		s.writeProblem(w, endpoint, problem(ProblemUnknownInstance, "unknown instance session", http.StatusNotFound,
			fmt.Errorf("no session %q (expired, evicted or never created)", id)))
		return
	}
	s.metrics.Request(endpoint, http.StatusNoContent)
	w.WriteHeader(http.StatusNoContent)
}
