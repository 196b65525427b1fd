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
// declared capability document, races them over the batch runner and
// returns the best verified answer. Consumers reach it like any other
// engine ("-solver auto", {"solver": "auto"}), so each new registered
// engine automatically improves every consumer.
//
// Selection is deterministic: candidates are filtered on declared
// capabilities plus instance feasibility (never on timing), results
// are collected in registry order, and the winner is the lowest
// replica count with the lexicographically first engine breaking ties.
// Exact engines join only on small instances (or on the "exact":
// "force" hint) and run budget-capped, so auto stays affordable and
// its answer reproducible.

const (
	// autoExactMaxNodes gates exponential candidates: beyond this many
	// tree nodes they are excluded unless the request hints
	// "exact": "force" ("skip" excludes them at any size).
	autoExactMaxNodes = 192
	// autoExactBudget caps each exponential candidate's search steps
	// when the request sets no budget of its own; exhaustion just
	// drops the candidate from the portfolio.
	autoExactBudget = int64(2_000_000)
	// autoDecompMinNodes routes oversized instances to the decomp
	// engine (when linked in) instead of racing the whole-tree
	// portfolio on them. The "decomp" hint mirrors the "exact" hint:
	// "force" routes at any size, "skip" never routes.
	autoDecompMinNodes = 32768
)

type autoEngine struct {
	caps Capabilities
}

func newAutoEngine() Engine {
	return &autoEngine{caps: Capabilities{
		Name:         Auto,
		Policy:       core.Multiple, // winners may be stricter; Multiple always admits them
		Exact:        false,         // Report.Proved says when a run was optimal anyway
		SupportsDMax: true,
		Cost:         CostPolynomial, // exponential candidates are size-gated and budget-capped
		Description:  "portfolio: races every capable registered engine, returns the best solution",
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
	if len(req.Exclude) > 0 {
		// Same gate engineCore applies to non-delta engines: dropping
		// the constraint would place on a failed server.
		return rep, tag(fmt.Errorf("solver %s: cannot honour excluded servers (delta engines only)",
			Auto), ErrPolicyUnsupported)
	}
	in := req.Instance

	// Oversized instances route to the subtree decomposition engine
	// when it is linked into the binary: racing whole-tree engines on
	// a million-node tree is exactly the ceiling decomp exists to
	// break. Routing is by name (decomp imports this package, so it
	// cannot be referenced statically); a missing or failing decomp
	// falls through to the regular portfolio.
	if dec := req.Hint("decomp"); dec != "skip" && (dec == "force" || in.Tree.Len() >= autoDecompMinNodes) {
		if eng, err := Lookup(Decomp); err == nil && req.Policy.Allows(core.Multiple) {
			creq := Request{
				Instance: in,
				Budget:   req.Budget,
				Deadline: req.Deadline,
				Hints:    map[string]string{"no-lower-bound": "1"},
			}
			if drep, derr := eng.Solve(ctx, creq); derr == nil && drep.Solution != nil {
				rep.Solution = drep.Solution
				rep.Policy = drep.Policy
				rep.Engine = drep.Engine
				rep.Work = drep.Work
				fillBound(&rep, req)
				rep.Elapsed = time.Since(begin)
				return rep, nil
			}
		}
	}

	// Feasibility depends only on the policy, so compute it at most
	// once per policy instead of per candidate (Feasible walks every
	// client's eligible-server set).
	feasCache := map[core.Policy]bool{}
	feasible := func(p core.Policy) bool {
		v, ok := feasCache[p]
		if !ok {
			v = in.Feasible(p)
			feasCache[p] = v
		}
		return v
	}

	// Capability-driven candidate selection. "capable" counts engines
	// that match the request before the feasibility cut, so an empty
	// portfolio is classified correctly: no matching engine at all is
	// an unsupported request, while matching engines that are all
	// blocked by infeasibility condemn the instance.
	var tasks []Task
	capable := 0
	for _, e := range Engines() {
		c := e.Capabilities()
		if c.Name == Auto || c.Name == Decomp || c.Hetero || c.Delta {
			// No self-recursion; decomp is routed explicitly above, not
			// raced (its piece solves already fan out through Batch);
			// hetero engines run exact's own bodies at uniform capacity,
			// so they would repeat the uniform ones; delta engines
			// optimise churn against a previous placement, not replica
			// count, so they never compete.
			continue
		}
		if !req.Policy.Allows(c.Policy) {
			continue
		}
		if !c.SupportsDMax && !in.NoD() {
			continue
		}
		if c.Cost == CostExponential {
			if req.Hint("exact") == "skip" {
				continue
			}
			// Exponential engines that declare no MaxNodes get the
			// classic size gate.
			limit := c.MaxNodes
			if limit == 0 {
				limit = autoExactMaxNodes
			}
			if req.Hint("exact") != "force" && in.Tree.Len() > limit {
				continue
			}
		} else if c.MaxNodes > 0 && in.Tree.Len() > c.MaxNodes {
			// Polynomial engines with a declared ceiling (lp-round's
			// simplex tableau is quadratic in the tree) drop out of the
			// portfolio above it.
			continue
		}
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
			// Auto computes the bound once for its own report; the
			// candidates need not repeat it.
			Hints: map[string]string{"no-lower-bound": "1"},
		}
		if c.Cost == CostExponential && creq.Budget <= 0 {
			creq.Budget = autoExactBudget
		}
		tasks = append(tasks, Task{ID: c.Name, Engine: e, Request: creq})
	}
	if len(tasks) == 0 {
		if capable > 0 {
			return rep, tag(fmt.Errorf("solver %s: instance is infeasible for every capable engine (constraint %s)",
				Auto, req.Policy), ErrInfeasible)
		}
		return rep, tag(fmt.Errorf("solver %s: no registered engine satisfies the request (policy constraint %s)",
			Auto, req.Policy), ErrPolicyUnsupported)
	}

	results, _ := Batch(ctx, tasks, Options{})
	best := -1
	for i := range results {
		r := &results[i]
		if r.Err != nil || r.Report.Solution == nil {
			continue
		}
		rep.Work += r.Report.Work
		if best < 0 || r.Report.Solution.NumReplicas() < results[best].Report.Solution.NumReplicas() {
			best = i
		}
	}
	if best < 0 {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		errs := make([]error, 0, len(results))
		for i := range results {
			if results[i].Err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", results[i].Task.ID, results[i].Err))
			}
		}
		err := fmt.Errorf("solver %s: every candidate failed: %w", Auto, errors.Join(errs...))
		if !feasible(core.Multiple) {
			err = tag(err, ErrInfeasible)
		}
		return rep, err
	}

	win := results[best].Report
	rep.Solution = win.Solution
	rep.Policy = win.Policy
	rep.Engine = win.Engine
	rep.Proved = win.Proved || provedByPeer(results, win)
	fillBound(&rep, req)
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
