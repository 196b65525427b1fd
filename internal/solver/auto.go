package solver

import (
	"context"
	"errors"
	"fmt"
	"time"

	"replicatree/internal/core"
)

// The auto engine is the capabilities registry made executable: a
// portfolio that, per request, selects every suitable engine by its
// declared capability document and returns the best verified answer.
// Consumers reach it like any other engine ("-solver auto",
// {"solver": "auto"}), so each new registered engine automatically
// improves every consumer.
//
// The candidates run in stages, one Batch per stage, ordered by their
// capability documents: polynomial engines with no size ceiling
// first, then polynomial engines with one (lp-round), then the
// exponential engines. After a stage that leaves a solution, auto
// computes the subtree-sum lower bound once; as soon as the best
// count equals it, no later candidate can use fewer replicas, so the
// remaining stages never start and the report is proved. The bound
// holds for every policy, so a met bound proves a Single winner as
// well as a Multiple one.
//
// Selection is deterministic: candidates are filtered on declared
// capabilities plus instance feasibility, the stop rule reads replica
// counts and the bound (never timing), and the winner is the lowest
// replica count, ties going to the earlier stage and then to registry
// order. Exact engines join only on small instances and run
// budget-capped, so auto stays affordable and its answer reproducible.

const (
	// autoExactMaxNodes is the exact engines' size ceiling: beyond this
	// many tree nodes the portfolio excludes them.
	autoExactMaxNodes = 192
	// autoExactBudget caps each exponential candidate's search steps
	// when the request sets no budget of its own; exhaustion just
	// drops the candidate from the portfolio.
	autoExactBudget = int64(2_000_000)
	// autoDecompMinNodes routes oversized instances to the decomp
	// engine instead of racing the whole-tree portfolio on them.
	autoDecompMinNodes = 32768
)

// The portfolio's stages, in the order they run.
const (
	stageCheap  = iota // polynomial, no MaxNodes
	stageCeiled        // polynomial with a MaxNodes ceiling (lp-round)
	stageExact         // exponential: size-gated and budget-capped
	autoStages
)

// autoStage is the stage a candidate runs in, read off its capability
// document.
func autoStage(c Capabilities) int {
	switch {
	case c.Cost == CostExponential:
		return stageExact
	case c.MaxNodes > 0:
		return stageCeiled
	default:
		return stageCheap
	}
}

type autoEngine struct {
	caps   Capabilities
	decomp Engine // the registered decomp engine, which huge trees go to
}

func newAutoEngine(decomp Engine) Engine {
	return &autoEngine{decomp: decomp, caps: Capabilities{
		Name:         Auto,
		Policy:       core.Multiple, // winners may be stricter; Multiple always admits them
		Exact:        false,         // Report.Proved says when a run was optimal anyway
		SupportsDMax: true,
		Cost:         CostPolynomial, // exponential candidates are size-gated and budget-capped
		Description:  "portfolio: runs capable engines in stages until one meets the lower bound, returns the best solution",
	}}
}

func (a *autoEngine) Name() string               { return a.caps.Name }
func (a *autoEngine) Capabilities() Capabilities { return a.caps }
func (a *autoEngine) String() string             { return a.caps.Name }

func (a *autoEngine) Solve(ctx context.Context, req Request) (Report, error) {
	begin := time.Now()
	rep := Report{Engine: Auto, Policy: core.Multiple}
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	if req.Instance == nil {
		return rep, fmt.Errorf("solver %s: nil instance", Auto)
	}
	if err := req.Instance.Validate(); err != nil {
		return rep, err
	}
	if len(req.Exclude) > 0 {
		// Same gate engineCore applies to non-delta engines: dropping
		// the constraint would place on a failed server.
		return rep, tag(fmt.Errorf("solver %s: cannot honour excluded servers (delta engines only)",
			Auto), ErrPolicyUnsupported)
	}
	in := req.Instance

	// Oversized instances go to the subtree decomposition engine:
	// racing whole-tree engines on a million-node tree is exactly the
	// ceiling decomp exists to break. Its answer, or its error, is
	// auto's.
	if in.Tree.Len() >= autoDecompMinNodes && req.Policy.Allows(core.Multiple) {
		drep, err := a.decomp.Solve(ctx, Request{Instance: in, Deadline: req.Deadline, NoBound: true})
		if err != nil {
			return rep, err
		}
		rep.Solution = drep.Solution
		rep.Policy = drep.Policy
		rep.Engine = drep.Engine
		fillBound(&rep, req)
		rep.Elapsed = time.Since(begin)
		return rep, nil
	}

	// Capability-driven candidate selection. "capable" counts engines
	// that match the request before the feasibility cut, so an empty
	// portfolio is classified correctly: no matching engine at all is
	// an unsupported request, while matching engines that are all
	// blocked by infeasibility condemn the instance.
	//
	// Feasibility depends only on the policy, so it is checked at most
	// once per policy, and only when needed (Feasible walks every
	// client's eligible-server set).
	var feasSingle, feasMultiple int8 // 0 unchecked, 1 feasible, -1 not
	feasible := func(p core.Policy) bool {
		v := &feasMultiple
		if p == core.Single {
			v = &feasSingle
		}
		if *v == 0 {
			*v = -1
			if in.Feasible(p) {
				*v = 1
			}
		}
		return *v > 0
	}
	var stages [autoStages][]Task
	capable, total := 0, 0
	for _, e := range Engines() {
		c := e.Capabilities()
		if c.Name == Auto || c.Name == Decomp || c.Delta {
			// No self-recursion; decomp is routed by size above, not
			// raced (its piece solves already fan out on every core);
			// delta engines optimise churn against a previous placement,
			// not replica count, so they never compete.
			continue
		}
		if !req.Policy.Allows(c.Policy) {
			continue
		}
		if !c.SupportsDMax && !in.NoD() {
			continue
		}
		if c.MaxNodes > 0 && in.Tree.Len() > c.MaxNodes {
			// A declared ceiling (exact's search, lp-round's tableau,
			// quadratic in the tree) drops the engine above it.
			continue
		}
		stage := autoStage(c)
		capable++
		if !feasible(c.Policy) {
			continue
		}
		// The candidate request deliberately omits req.Scratch: Batch
		// runs candidates concurrently and a Scratch is single-owner,
		// so sharing it would race the session buffers (and alias the
		// candidates' solutions into one arena).
		creq := Request{
			Instance: in,
			Budget:   req.Budget,
			Deadline: req.Deadline,
			NoBound:  true,
		}
		if stage == stageExact && creq.Budget <= 0 {
			creq.Budget = autoExactBudget
		}
		stages[stage] = append(stages[stage], Task{ID: c.Name, Engine: e, Request: creq})
		total++
	}
	if total == 0 {
		if capable > 0 {
			return rep, tag(fmt.Errorf("solver %s: instance is infeasible for every capable engine (constraint %s)",
				Auto, req.Policy), ErrInfeasible)
		}
		return rep, tag(fmt.Errorf("solver %s: no registered engine satisfies the request (policy constraint %s)",
			Auto, req.Policy), ErrPolicyUnsupported)
	}

	// Run the stages in order until the best count meets the bound. A
	// stage never starts once ctx is done: the best answer so far
	// stands, like a candidate that finished before the cancellation.
	var (
		ran   [autoStages][]Result
		win   *Result
		bound = -1
	)
	for s := range stages {
		if len(stages[s]) == 0 {
			continue
		}
		if ctx.Err() != nil {
			break
		}
		ran[s], _ = Batch(ctx, stages[s], Options{})
		for i := range ran[s] {
			r := &ran[s][i]
			if r.Err != nil || r.Report.Solution == nil {
				continue
			}
			rep.Work += r.Report.Work
			if win == nil || r.Report.Solution.NumReplicas() < win.Report.Solution.NumReplicas() {
				win = r
			}
		}
		if win == nil {
			continue
		}
		if bound < 0 {
			bound = lowerBound(req)
		}
		if win.Report.Solution.NumReplicas() == bound {
			break
		}
	}
	if win == nil {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		var errs []error
		for s := range ran {
			for i := range ran[s] {
				if r := &ran[s][i]; r.Err != nil {
					errs = append(errs, fmt.Errorf("%s: %w", r.Task.ID, r.Err))
				}
			}
		}
		err := fmt.Errorf("solver %s: every candidate failed: %w", Auto, errors.Join(errs...))
		if !feasible(core.Multiple) {
			err = tag(err, ErrInfeasible)
		}
		return rep, err
	}

	rep.Solution = win.Report.Solution
	rep.Policy = win.Report.Policy
	rep.Engine = win.Report.Engine
	rep.Proved = win.Report.Proved || rep.Solution.NumReplicas() == bound ||
		provedByPeer(ran[stageExact], win.Report)
	if !req.NoBound {
		rep.setBound(bound)
	}
	rep.Elapsed = time.Since(begin)
	return rep, nil
}

// provedByPeer reports whether some exact candidate proves the
// winner's count optimal for the winner's policy: a proved Multiple
// optimum at the same count bounds every policy from below, and a
// proved Single optimum covers a Single-policy winner.
func provedByPeer(results []Result, win Report) bool {
	n := win.Solution.NumReplicas()
	for i := range results {
		r := &results[i]
		if r.Err != nil || r.Report.Solution == nil || !r.Report.Proved {
			continue
		}
		if r.Report.Solution.NumReplicas() != n {
			continue
		}
		if r.Report.Policy == core.Multiple || win.Policy == core.Single {
			return true
		}
	}
	return false
}
