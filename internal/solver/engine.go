package solver

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"replicatree/internal/core"
	"replicatree/internal/multiple"
	"replicatree/internal/tree"
)

// This file is the solver contract: a typed Request/Report pair around
// a single Engine interface, plus the Capabilities document every
// engine publishes through the registry.

// Want expresses a Request's access-policy constraint.
type Want uint8

const (
	// AnyPolicy accepts whatever policy the engine solves.
	AnyPolicy Want = iota
	// WantSingle requires a solution obeying the Single policy.
	WantSingle
	// WantMultiple requires a solution obeying the Multiple policy.
	// Single-policy solutions qualify too (Single is a restriction of
	// Multiple), so WantMultiple admits every engine.
	WantMultiple
)

// Allows reports whether an engine solving policy p can satisfy the
// constraint.
func (w Want) Allows(p core.Policy) bool {
	switch w {
	case WantSingle:
		return p == core.Single
	case WantMultiple:
		// A Single-policy solution never splits a client, so it is
		// feasible under Multiple's relaxed rules as well.
		return true
	default:
		return true
	}
}

// String implements fmt.Stringer.
func (w Want) String() string {
	switch w {
	case WantSingle:
		return "Single"
	case WantMultiple:
		return "Multiple"
	default:
		return "Any"
	}
}

// Request is everything a caller can ask of an engine. The zero value
// plus an Instance is a plain unconstrained solve; every other field
// tightens or annotates it.
type Request struct {
	// Instance is the problem to solve. Required.
	Instance *core.Instance
	// Policy constrains the access policy of the solution. The zero
	// value (AnyPolicy) accepts the engine's native policy.
	Policy Want
	// Budget caps the elementary work of budget-aware (exact) engines;
	// 0 keeps their default.
	Budget int64
	// Deadline, when non-zero, bounds the wall-clock time of the solve
	// via the context.
	Deadline time.Time
	// NoBound skips the Report's lower-bound/gap computation. Callers
	// that compute the bound once for many solves (auto's candidates,
	// decomp's piece solves, the experiments sweep) set it; it is never
	// read off the wire.
	NoBound bool
	// Scratch, when non-nil, lends the engine the working memory its
	// session solves on, so a caller that re-solves can keep the
	// session buffers warm: zero heap allocations once the instance is
	// ingested. The Report's Solution of a session engine is then owned
	// by the scratch and valid only until its next solve — clone it
	// before PutScratch. When nil, the engine borrows a pooled scratch
	// for the solve and returns a detached Solution. Every built-in
	// engine verifies its answer on the scratch, so the field matters
	// to all of them. A Scratch must never be shared across concurrent
	// requests.
	Scratch *Scratch
	// Previous, when non-nil, hands a delta-capable engine
	// (Capabilities.Delta) the placement it should adapt instead of
	// solving from scratch; the engine minimises churn against it and
	// reports the churn in Report.Churn. Non-delta engines ignore it.
	Previous *core.Solution
	// Exclude lists nodes that must not host replicas (failed
	// servers). Only delta-capable engines honour it; handing a
	// non-empty Exclude to any other engine is a typed
	// ErrPolicyUnsupported, not a silent drop of the constraint.
	Exclude []tree.NodeID
}

// Report is the full outcome of one solve: the solution plus the
// uniform quality metadata (bound, gap, optimality proof, work).
type Report struct {
	// Solution is the verified-feasible placement.
	Solution *core.Solution
	// Policy is the access policy the solution obeys. For a portfolio
	// engine this is the winning candidate's policy, which may be
	// stricter than the engine's declared capability.
	Policy core.Policy
	// LowerBound is core.LowerBound of the instance; Gap is
	// (replicas − LowerBound) / LowerBound, 0 when the bound is met or
	// unavailable. Both are 0 when Request.NoBound is set.
	LowerBound int
	Gap        float64
	// Work counts the elementary search steps of budget-aware engines
	// (node expansions / feasibility checks); 0 when not tracked.
	Work int64
	// Proved reports that the solution is provably optimal for the
	// reported policy.
	Proved bool
	// Elapsed is the wall-clock solve time.
	Elapsed time.Duration
	// Engine names the engine that produced the solution — equal to
	// the dispatched name except under the auto portfolio, which
	// reports the winning candidate.
	Engine string
	// Churn, set only by delta-capable engines adapting a
	// Request.Previous placement, quantifies the re-placement cost:
	// replicas added/removed and request volume that changed servers.
	// Nil everywhere else.
	Churn *multiple.Churn
}

// Engine is the solver contract. Implementations must be safe for
// concurrent use; Batch and the HTTP service call them from many
// goroutines.
type Engine interface {
	Name() string
	Capabilities() Capabilities
	Solve(ctx context.Context, req Request) (Report, error)
}

// CostClass is the coarse complexity class of an engine, used by the
// auto portfolio to decide which candidates are affordable.
type CostClass uint8

const (
	// CostUnknown is the zero value: an engine that declares no cost
	// class. The auto portfolio treats it like a polynomial engine.
	CostUnknown CostClass = iota
	// CostPolynomial engines are safe on instances of any size.
	CostPolynomial
	// CostExponential engines (branch-and-bound, set enumeration) are
	// budget-bounded and only affordable on small instances.
	CostExponential
)

// String implements fmt.Stringer.
func (c CostClass) String() string {
	switch c {
	case CostPolynomial:
		return "polynomial"
	case CostExponential:
		return "exponential"
	default:
		return "unknown"
	}
}

// Capabilities is the registry's typed description of one engine: a
// consumer reads one document instead of probing optional interfaces,
// and a missing declaration is an explicit CostUnknown/zero field
// rather than a silent default.
type Capabilities struct {
	// Name is the registry name.
	Name string
	// Policy is the access policy of the engine's solutions.
	Policy core.Policy
	// Exact engines return provably optimal solutions (within budget).
	Exact bool
	// SupportsDMax engines handle finite distance bounds; the NoD
	// family does not and rejects distance-constrained instances.
	SupportsDMax bool
	// Cost is the engine's complexity class.
	Cost CostClass
	// Delta engines adapt a Request.Previous placement (minimising
	// churn, honouring Request.Exclude) instead of optimising replica
	// count from scratch; portfolios skip them — stability is a
	// different objective than minimality.
	Delta bool
	// MaxNodes is the largest instance (total tree nodes) the engine
	// is sized for; portfolios drop it from the candidate set above
	// that, and a non-exponential engine refuses a direct request
	// above it with ErrPolicyUnsupported (exponential engines are
	// bounded by their budget instead). 0 means unbounded — notably
	// the decomp engine, which exists precisely for instances
	// everything else is too small for.
	MaxNodes int
	// Description is a one-line human summary for catalogues.
	Description string
}

// engineCore is the shared implementation behind every built-in
// engine: it validates the request, enforces the capability gates
// (policy constraint, distance support, size ceiling), threads budget
// and deadline, classifies failures onto the sentinel errors and fills
// the uniform Report fields around the wrapped solve function. It is
// also the output gate: no answer leaves it unless core.Scratch.Verify
// accepts it under the report's policy and no Request.Exclude node
// hosts a replica (ErrVerification otherwise), so the wrapped
// functions do not verify their own answers.
type engineCore struct {
	caps Capabilities
	// fn returns the solution plus the elementary work performed
	// (0 when untracked). It sees a request whose Instance is non-nil
	// and that passed the capability gates.
	fn func(ctx context.Context, req Request) (*core.Solution, int64, error)
	// deltaFn, set only on Delta engines, additionally returns the
	// churn against Request.Previous for Report.Churn.
	deltaFn func(ctx context.Context, req Request) (*core.Solution, *multiple.Churn, int64, error)
	// session marks engines whose fn solves on req.Scratch, so that
	// a solution from a borrowed scratch must be detached from it.
	session bool
}

// NewEngine wraps a solve function and its capability document as a
// registrable Engine. The returned engine enforces the documented
// gates, so fn can assume a non-nil instance that passed them.
func NewEngine(caps Capabilities, fn func(ctx context.Context, req Request) (*core.Solution, int64, error)) Engine {
	return &engineCore{caps: caps, fn: fn}
}

// NewDeltaEngine wraps a delta solve function — one that adapts
// Request.Previous and reports churn — as a registrable Engine.
// caps.Delta is forced true so the registry document matches the
// behaviour.
func NewDeltaEngine(caps Capabilities, fn func(ctx context.Context, req Request) (*core.Solution, *multiple.Churn, int64, error)) Engine {
	caps.Delta = true
	return &engineCore{caps: caps, deltaFn: fn}
}

func (e *engineCore) Name() string               { return e.caps.Name }
func (e *engineCore) Capabilities() Capabilities { return e.caps }
func (e *engineCore) String() string             { return e.caps.Name }

func (e *engineCore) Solve(ctx context.Context, req Request) (Report, error) {
	begin := time.Now()
	rep := Report{Engine: e.caps.Name, Policy: e.caps.Policy}
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	if req.Instance == nil {
		return rep, fmt.Errorf("solver %s: nil instance", e.caps.Name)
	}
	if !req.Policy.Allows(e.caps.Policy) {
		return rep, tag(fmt.Errorf("solver %s: solves %s, request requires %s",
			e.caps.Name, e.caps.Policy, req.Policy), ErrPolicyUnsupported)
	}
	if !e.caps.SupportsDMax && !req.Instance.NoD() {
		// The rendered text names the engine and the finite dmax; the
		// sentinel carries the class for typed handling.
		return rep, tag(fmt.Errorf("solver %s: requires a NoD instance (dmax=%d is finite)",
			e.caps.Name, req.Instance.DMax), ErrPolicyUnsupported)
	}
	if len(req.Exclude) > 0 && !e.caps.Delta {
		// An excluded-server constraint silently dropped would return a
		// "feasible" placement on a failed node; fail typed instead.
		return rep, tag(fmt.Errorf("solver %s: cannot honour excluded servers (delta engines only)",
			e.caps.Name), ErrPolicyUnsupported)
	}
	if e.caps.Cost != CostExponential && e.caps.MaxNodes > 0 && req.Instance.Tree != nil &&
		req.Instance.Tree.Len() > e.caps.MaxNodes {
		// Checked before ingest: lp-round's tableau grows with the
		// square of the tree, so an oversized direct request would
		// allocate gigabytes before failing. Exponential engines keep
		// their budget instead.
		return rep, tag(fmt.Errorf("solver %s: instance has %d nodes, above the engine's ceiling of %d",
			e.caps.Name, req.Instance.Tree.Len(), e.caps.MaxNodes), ErrPolicyUnsupported)
	}
	if !req.Deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, req.Deadline)
		defer cancel()
		// Re-check before dispatch: many wrapped algorithms run to
		// completion without polling the context, so an already-expired
		// deadline must fail fast here.
		if err := ctx.Err(); err != nil {
			return rep, err
		}
	}
	// The gate and fillBound run on the request's scratch, or on one
	// borrowed from the pool. Only session engines solve on a borrowed
	// scratch, and their solution is detached before it goes back: an
	// engine that forwards its request must not hand on pooled memory.
	sc := req.Scratch
	borrowed := sc == nil
	if borrowed {
		sc = GetScratch()
		defer PutScratch(sc)
		if e.session {
			req.Scratch = sc
		}
	}
	var (
		sol   *core.Solution
		churn *multiple.Churn
		work  int64
		err   error
	)
	if e.deltaFn != nil {
		sol, churn, work, err = e.deltaFn(ctx, req)
	} else {
		sol, work, err = e.fn(ctx, req)
	}
	rep.Work = work
	rep.Churn = churn
	rep.Elapsed = time.Since(begin)
	if err != nil {
		if !req.Instance.Feasible(e.caps.Policy) {
			err = tag(err, ErrInfeasible)
		}
		return rep, err
	}
	req.Scratch = sc // fillBound reads the tables the gate grew
	if err := sc.gate(req, rep.Policy, sol); err != nil {
		return rep, tag(fmt.Errorf("solver %s: solution failed verification: %w", e.caps.Name, err), ErrVerification)
	}
	rep.Solution = sol
	rep.Proved = e.caps.Exact
	fillBound(&rep, req)
	if borrowed && e.session {
		rep.Solution = sol.Clone()
	}
	rep.Elapsed = time.Since(begin)
	return rep, nil
}

// gate is the seam's output check: sol must be feasible for the
// request's instance under pol, and no excluded node may host a
// replica. It allocates nothing when the solution passes.
func (sc *Scratch) gate(req Request, pol core.Policy, sol *core.Solution) error {
	if sol == nil {
		return errors.New("no solution")
	}
	if err := sc.check.Verify(req.Instance, pol, sol); err != nil {
		return err
	}
	for _, x := range req.Exclude {
		if slices.Contains(sol.Replicas, x) {
			return fmt.Errorf("excluded node %d hosts a replica", x)
		}
	}
	return nil
}

// fillBound computes the uniform lower-bound/gap block of a successful
// report, unless Request.NoBound suppresses it.
func fillBound(rep *Report, req Request) {
	if rep.Solution == nil || req.NoBound {
		return
	}
	rep.setBound(lowerBound(req))
}

// lowerBound is core.LowerBound of the request's instance. A lent
// scratch's bound tables make it allocation-free.
func lowerBound(req Request) int {
	if sc := req.Scratch; sc != nil {
		return sc.check.LowerBound(req.Instance)
	}
	return core.LowerBound(req.Instance)
}

// setBound fills the report's bound and the gap of its solution to it.
func (rep *Report) setBound(bound int) {
	rep.LowerBound = bound
	if bound > 0 {
		rep.Gap = float64(rep.Solution.NumReplicas()-bound) / float64(bound)
	}
}
