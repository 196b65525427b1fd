// Package delta implements stateful instance sessions with
// mutate-and-resolve: a Session owns a mutable copy of one instance,
// its last solution and solver working memory, and re-solves after
// typed mutations instead of solving from scratch.
//
// Every resolve is one Engine.Solve call on the session's own
// solver.Scratch, with the previous solution in Request.Previous and
// the failed servers in Request.Exclude:
//
//   - delta-capable engines (multiple-replan) adapt the previous
//     placement and minimise churn themselves;
//   - every other engine ignores Previous (Apply and SetFailed refuse
//     failed servers for it, so Exclude stays empty) and re-solves warm
//     on the scratch. For single-gen the warm solve is incremental:
//     Algorithm 1's memo in the scratch's single.Session survives the
//     re-ingest, and Gen re-visits only the root paths whose inputs
//     changed since its last solve.
//
// The engine seam verifies the answer, failed servers included, and
// fills the lower bound. Resolve reports the churn against the
// previous resolve in Report.Churn, as multiple.PlanDelta computes it
// (the delta engine calls it itself). The returned solution is cloned
// once out of the scratch and then shared with the session, which
// keeps it as the next resolve's Previous: callers read it and never
// mutate it. A Session is safe for concurrent use.
package delta

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"replicatree/internal/core"
	"replicatree/internal/multiple"
	"replicatree/internal/solver"
	"replicatree/internal/tree"
)

// Op names a mutation kind. The string values are the wire format of
// the /v2/instances mutate endpoint.
type Op string

const (
	// OpAddClient appends a new leaf client under Parent with edge
	// length Dist, rate Requests and optional Label. Node IDs stay
	// dense and stable; the new client's ID is returned via Session
	// state (it is always the previous node count).
	OpAddClient Op = "add_client"
	// OpRemoveClient zeroes the rate of client Node. IDs are never
	// renumbered: a removed client stays as an idle leaf, which keeps
	// every incremental table and the canonical shape stable.
	OpRemoveClient Op = "remove_client"
	// OpSetRequest sets the rate of client Node to Requests.
	OpSetRequest Op = "set_request"
	// OpFailServer marks Node as unable to host replicas. Only
	// delta-capable engines (multiple-replan) honour failures; other
	// sessions reject the op.
	OpFailServer Op = "fail_server"
	// OpSetEdgeLength sets the length of the edge above Node to Dist.
	OpSetEdgeLength Op = "set_edge_length"
	// OpSetCapacity sets the per-server capacity to W.
	OpSetCapacity Op = "set_capacity"
)

// Mutation is one typed mutation; which fields matter depends on Op.
type Mutation struct {
	Op       Op          `json:"op"`
	Node     tree.NodeID `json:"node,omitempty"`
	Parent   tree.NodeID `json:"parent,omitempty"`
	Dist     int64       `json:"dist,omitempty"`
	Requests int64       `json:"requests,omitempty"`
	W        int64       `json:"w,omitempty"`
	Label    string      `json:"label,omitempty"`
}

// Session is a long-lived mutable instance bound to one engine. Create
// with New, mutate with Apply, re-solve with Resolve, release with
// Close.
type Session struct {
	mu sync.Mutex

	id      string // canonical hash of the instance at creation
	engine  solver.Engine
	ed      *tree.Editor
	w, dmax int64           // the current W and DMax
	sc      *solver.Scratch // every resolve solves on it
	closed  bool

	prev   *core.Solution // last solution (session-owned clone); nil before first resolve
	last   solver.Report  // last successful report (solution/churn are caller clones)
	solved bool
	failed []tree.NodeID // sorted failed-server set (delta engines only)
}

// New creates a session over a private copy of in, bound to the named
// engine. The instance is validated once; the session's identity is
// its canonical hash at this point (mutations do not change the ID).
func New(in *core.Instance, engineName string) (*Session, error) {
	if in == nil {
		return nil, errors.New("delta: nil instance")
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	eng, err := solver.Lookup(engineName)
	if err != nil {
		return nil, err
	}
	return &Session{
		id:     in.CanonicalHash(),
		engine: eng,
		ed:     tree.NewEditor(in.Tree),
		w:      in.W,
		dmax:   in.DMax,
		sc:     solver.GetScratch(),
	}, nil
}

// ID returns the canonical hash of the instance the session was
// created from. It identifies the session, not the current mutated
// instance (whose hash drifts with every mutation).
func (s *Session) ID() string { return s.id }

// Engine returns the bound engine's name.
func (s *Session) Engine() string { return s.engine.Name() }

// Instance returns an independent snapshot of the current (mutated)
// instance, safe to solve cold while the session keeps mutating.
func (s *Session) Instance() *core.Instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &core.Instance{Tree: s.ed.Tree().Clone(), W: s.w, DMax: s.dmax}
}

// Shape returns the current node count, W and DMax without copying
// the tree.
func (s *Session) Shape() (nodes int, w, dmax int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ed.Len(), s.w, s.dmax
}

// Failed returns the current failed-server set.
func (s *Session) Failed() []tree.NodeID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.failed)
}

// Report returns the last successful resolve's report, if any.
func (s *Session) Report() (solver.Report, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last, s.solved
}

// Close releases the session's solver working memory. The session
// must not be used afterwards.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	solver.PutScratch(s.sc)
	s.sc, s.closed = nil, true
}

// Apply applies mutations in order. The first invalid mutation aborts
// the batch with an error; mutations before it remain applied (each
// leaves the instance valid, so the session stays consistent and the
// next Resolve solves the instance as edited so far).
func (s *Session) Apply(muts []Mutation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range muts {
		if err := s.apply(&muts[i]); err != nil {
			return fmt.Errorf("delta: mutation %d (%s): %w", i, muts[i].Op, err)
		}
	}
	return nil
}

func (s *Session) apply(m *Mutation) error {
	switch m.Op {
	case OpAddClient:
		if _, err := s.ed.AddLeaf(m.Parent, m.Dist, m.Requests, m.Label); err != nil {
			return err
		}
	case OpRemoveClient:
		if err := s.ed.SetRequests(m.Node, 0); err != nil {
			return err
		}
	case OpSetRequest:
		if err := s.ed.SetRequests(m.Node, m.Requests); err != nil {
			return err
		}
	case OpSetEdgeLength:
		if err := s.ed.SetEdgeLen(m.Node, m.Dist); err != nil {
			return err
		}
	case OpSetCapacity:
		if m.W <= 0 {
			return fmt.Errorf("non-positive capacity W=%d", m.W)
		}
		s.w = m.W
	case OpFailServer:
		if !s.engine.Capabilities().Delta {
			return fmt.Errorf("engine %s cannot honour failed servers (delta engines only)", s.engine.Name())
		}
		if m.Node < 0 || int(m.Node) >= s.ed.Len() {
			return fmt.Errorf("unknown node %d", m.Node)
		}
		if _, ok := slices.BinarySearch(s.failed, m.Node); !ok {
			s.failed = append(s.failed, m.Node)
			slices.Sort(s.failed)
		}
	default:
		return fmt.Errorf("unknown op %q", m.Op)
	}
	return nil
}

// SetFailed replaces the failed-server set wholesale — the natural
// shape for failure replay, where servers fail and recover. Only valid
// on delta-capable sessions.
func (s *Session) SetFailed(failed []tree.NodeID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.engine.Capabilities().Delta {
		return fmt.Errorf("delta: engine %s cannot honour failed servers (delta engines only)", s.engine.Name())
	}
	t := s.ed.Tree()
	for _, j := range failed {
		if !t.Valid(j) {
			return fmt.Errorf("delta: unknown node %d", j)
		}
	}
	s.failed = slices.Clone(failed)
	slices.Sort(s.failed)
	s.failed = slices.Compact(s.failed)
	return nil
}

// Resolve re-solves the current instance. The returned report's
// Solution is read-only: the session keeps the same copy as the next
// resolve's Previous and hands it out again from Report. Churn is
// caller-owned and always compares against the previous successful
// resolve (all-added on the first). A failed
// resolve leaves the previous solution untouched, so a later mutation
// can repair the instance.
func (s *Session) Resolve(ctx context.Context) (solver.Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return solver.Report{}, errors.New("delta: session is closed")
	}
	// A fresh instance wrapper forces the scratch to re-ingest: the
	// tree was edited in place, and the ingest key is pointer identity.
	rep, err := s.engine.Solve(ctx, solver.Request{
		Instance: &core.Instance{Tree: s.ed.Tree(), W: s.w, DMax: s.dmax},
		Previous: s.prev,
		Exclude:  s.failed,
		Scratch:  s.sc,
	})
	if err != nil {
		return rep, err
	}
	// A session engine's solution is scratch-owned; only the delta
	// engines report their own churn.
	rep.Solution = rep.Solution.Clone()
	if rep.Churn == nil {
		ch := multiple.PlanDelta(s.prev, rep.Solution)
		rep.Churn = &ch
	}
	s.prev = rep.Solution
	s.last = rep
	s.solved = true
	return rep, nil
}
