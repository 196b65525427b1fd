package solver

import (
	"context"
	"errors"
	"fmt"
	"time"

	"replicatree/internal/core"
)

// This file keeps the auto portfolio's first body as the oracle for
// the staged one: it races every capable engine in one Batch, with no
// stop rule, and takes the lowest count, registry order breaking ties.
// Its report is proved only when a candidate (or an exact peer at the
// same count) proves it. The decomp route is left out: the oracle only
// sees instances far below its threshold.

// referenceAuto is the full-race auto portfolio.
func referenceAuto(ctx context.Context, req Request) (Report, error) {
	begin := time.Now()
	rep := Report{Engine: Auto, Policy: core.Multiple}
	if err := ctx.Err(); err != nil {
		return rep, err
	}
	if req.Instance == nil {
		return rep, fmt.Errorf("solver %s: nil instance", Auto)
	}
	if len(req.Exclude) > 0 {
		return rep, tag(fmt.Errorf("solver %s: cannot honour excluded servers (delta engines only)",
			Auto), ErrPolicyUnsupported)
	}
	in := req.Instance

	feasCache := map[core.Policy]bool{}
	feasible := func(p core.Policy) bool {
		v, ok := feasCache[p]
		if !ok {
			v = in.Feasible(p)
			feasCache[p] = v
		}
		return v
	}

	var tasks []Task
	capable := 0
	for _, e := range Engines() {
		c := e.Capabilities()
		if c.Name == Auto || c.Name == Decomp || c.Delta {
			continue
		}
		if !req.Policy.Allows(c.Policy) {
			continue
		}
		if !c.SupportsDMax && !in.NoD() {
			continue
		}
		if c.MaxNodes > 0 && in.Tree.Len() > c.MaxNodes {
			continue
		}
		capable++
		if !feasible(c.Policy) {
			continue
		}
		creq := Request{
			Instance: in,
			Budget:   req.Budget,
			Deadline: req.Deadline,
			NoBound:  true,
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
