package solver

import (
	"context"

	"replicatree/internal/core"
	"replicatree/internal/decomp"
	"replicatree/internal/exact"
	"replicatree/internal/multiple"
)

// Built-in engine names. Every algorithm the repository implements is
// registered here; consumers dispatch by name via Lookup/List.
const (
	SingleGen      = "single-gen"      // Algorithm 1, (Δ+1)-approx, Single
	SingleNoD      = "single-nod"      // Algorithm 2, 2-approx, Single-NoD
	SinglePassUp   = "single-passup"   // pass-up variant of Algorithm 2, Single-NoD
	SingleBest     = "single-best"     // min(single-nod, single-passup)
	SinglePushUp   = "single-pushup"   // single-nod + push-up post-pass
	MultipleBin    = "multiple-bin"    // Algorithm 3 (eager), Multiple, binary trees
	MultipleLazy   = "multiple-lazy"   // lazy variant of Algorithm 3
	MultipleBest   = "multiple-best"   // min(multiple-bin, multiple-lazy)
	MultipleGreedy = "multiple-greedy" // general-arity generalisation of Algorithm 3
	MultipleReplan = "multiple-replan" // churn-minimising adaptation of a previous placement
	ExactSingle    = "exact-single"    // optimal Single branch-and-bound
	ExactMultiple  = "exact-multiple"  // optimal Multiple set search + max-flow
	LPRound        = "lp-round"        // LP relaxation support rounding, Multiple
	Auto           = "auto"            // capability-driven portfolio over the registry
	Decomp         = "decomp"          // subtree decomposition for huge trees; auto routes to it
)

// lpRoundMaxNodes caps lp-round: portfolios drop it above this size
// and a direct request is refused. The simplex tableau is quadratic in
// the tree, so on huge instances it is the memory hog the decomp route
// exists to avoid.
const lpRoundMaxNodes = 4096

// caps is a terse Capabilities constructor for the built-in table.
func caps(name string, pol core.Policy, exact, dmax bool, cost CostClass, desc string) Capabilities {
	return Capabilities{
		Name: name, Policy: pol, Exact: exact,
		SupportsDMax: dmax, Cost: cost, Description: desc,
	}
}

// sized stamps a size ceiling onto a capability document (see
// Capabilities.MaxNodes).
func sized(c Capabilities, maxNodes int) Capabilities {
	c.MaxNodes = maxNodes
	return c
}

// newSessionEngine registers a polynomial built-in by its session
// solve: the request's instance is ingested into req.Scratch (lent by
// the caller, or borrowed from the pool by engineCore.Solve) and
// solved on its reusable buffers.
func newSessionEngine(caps Capabilities, solve func(*Scratch) (*core.Solution, error)) Engine {
	return &engineCore{caps: caps, session: true, fn: func(_ context.Context, req Request) (*core.Solution, int64, error) {
		req.Scratch.ingest(req.Instance)
		sol, err := solve(req.Scratch)
		return sol, 0, err
	}}
}

// exactFn adapts the exact branch-and-bound solvers, threading
// Request.Budget into exact.Options and the consumed steps back into
// Report.Work.
func exactFn(fn func(*core.Instance, exact.Options) (*core.Solution, error)) func(context.Context, Request) (*core.Solution, int64, error) {
	return func(_ context.Context, req Request) (*core.Solution, int64, error) {
		var work int64
		sol, err := fn(req.Instance, exact.Options{Budget: req.Budget, Work: &work})
		return sol, work, err
	}
}

func init() {
	poly, expo := CostPolynomial, CostExponential
	MustRegisterEngine(newSessionEngine(
		caps(SingleGen, core.Single, false, true, poly, "Algorithm 1: greedy bottom-up, (Δ+1)-approximation"),
		func(sc *Scratch) (*core.Solution, error) { return sc.single.Gen() }))
	MustRegisterEngine(newSessionEngine(
		caps(SingleNoD, core.Single, false, false, poly, "Algorithm 2: 2-approximation for Single without distance bound"),
		func(sc *Scratch) (*core.Solution, error) { return sc.single.NoD() }))
	MustRegisterEngine(newSessionEngine(
		caps(SinglePassUp, core.Single, false, false, poly, "pass-up variant of Algorithm 2"),
		func(sc *Scratch) (*core.Solution, error) { return sc.single.PassUp() }))
	MustRegisterEngine(newSessionEngine(
		caps(SingleBest, core.Single, false, false, poly, "min(single-nod, single-passup)"),
		func(sc *Scratch) (*core.Solution, error) { return sc.single.Best() }))
	MustRegisterEngine(newSessionEngine(
		caps(SinglePushUp, core.Single, false, false, poly, "single-nod followed by the push-up post-pass"),
		func(sc *Scratch) (*core.Solution, error) { return sc.single.PushUp() }))
	MustRegisterEngine(newSessionEngine(
		caps(MultipleBin, core.Multiple, false, true, poly, "Algorithm 3 (eager): optimal on binary trees with ri ≤ W"),
		func(sc *Scratch) (*core.Solution, error) { return sc.multiple.Bin() }))
	MustRegisterEngine(newSessionEngine(
		caps(MultipleLazy, core.Multiple, false, true, poly, "lazy variant of Algorithm 3"),
		func(sc *Scratch) (*core.Solution, error) { return sc.multiple.Lazy() }))
	MustRegisterEngine(newSessionEngine(
		caps(MultipleBest, core.Multiple, false, true, poly, "min(multiple-bin, multiple-lazy)"),
		func(sc *Scratch) (*core.Solution, error) { return sc.multiple.Best() }))
	MustRegisterEngine(newSessionEngine(
		caps(MultipleGreedy, core.Multiple, false, true, poly, "general-arity generalisation of Algorithm 3"),
		func(sc *Scratch) (*core.Solution, error) { return sc.multiple.Greedy() }))
	MustRegisterEngine(NewDeltaEngine(
		caps(MultipleReplan, core.Multiple, false, true, poly, "adapt a previous placement with minimal churn (delta engine)"),
		func(_ context.Context, req Request) (*core.Solution, *multiple.Churn, int64, error) {
			prev := req.Previous
			if prev == nil {
				// Replanning from nothing is a plain greedy build-up;
				// the churn then counts every placement as new.
				prev = &core.Solution{}
			}
			sol, churn, err := multiple.ReplanExcluding(req.Instance, prev, req.Exclude)
			if err != nil {
				return nil, nil, 0, err
			}
			return sol, &churn, 0, nil
		}))
	MustRegisterEngine(NewEngine(
		sized(caps(ExactSingle, core.Single, true, true, expo, "optimal Single via branch-and-bound over assignments"), autoExactMaxNodes),
		exactFn(exact.SolveSingle)))
	MustRegisterEngine(NewEngine(
		sized(caps(ExactMultiple, core.Multiple, true, true, expo, "optimal Multiple via set enumeration with a max-flow oracle"), autoExactMaxNodes),
		exactFn(exact.SolveMultiple)))
	MustRegisterEngine(newSessionEngine(
		sized(caps(LPRound, core.Multiple, false, true, poly, "LP relaxation support rounding"), lpRoundMaxNodes),
		func(sc *Scratch) (*core.Solution, error) {
			s, err := sc.lpSession()
			if err != nil {
				return nil, err
			}
			return s.Placement()
		}))
	decompEngine := NewEngine(
		caps(Decomp, core.Multiple, false, true, poly, "subtree decomposition: partitioned parallel piece solves with boundary coordination"),
		solveDecomp)
	MustRegisterEngine(decompEngine)
	MustRegisterEngine(newAutoEngine(decompEngine))
}

// solveDecomp is the decomp engine's body: decomp.SolveFlat on the
// request's tree as it is, with no ceiling (MaxNodes 0: it is the
// engine the sized ones leave huge trees to). The seam verifies the
// stitched answer, so SolveFlat does not. It reports no work: its cost
// is polynomial, and Report.Work counts search steps only. The
// huge-tree paths (cmd/replica -stream, the replicabench huge-tree
// workload) call SolveFlat directly.
func solveDecomp(ctx context.Context, req Request) (*core.Solution, int64, error) {
	fi := &core.FlatInstance{Flat: req.Instance.Tree, W: req.Instance.W, DMax: req.Instance.DMax}
	res, err := decomp.SolveFlat(ctx, fi, decomp.Options{})
	if err != nil {
		return nil, 0, err
	}
	return res.Solution, 0, nil
}
