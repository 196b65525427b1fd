// Package experiments reproduces every evaluation artifact of the
// paper: the NP-hardness gadget equivalences (Theorems 1, 2, 5 /
// Figures 1, 2, 5), the tight approximation-ratio families (Theorem 3
// / Figure 3 and Theorem 4 / Figure 4), the optimality of Algorithm 3
// (Theorem 6), and the complexity claims, plus the contextual
// comparisons the introduction motivates (Single vs Multiple,
// bin-packing bounds). Each runner returns a text table whose rows are
// the paper-vs-measured series recorded in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"

	"replicatree/internal/core"
	"replicatree/internal/solver"
	"replicatree/internal/stats"
)

// Workers bounds the worker pools of the solver.Batch sweeps; 0 means
// GOMAXPROCS. cmd/experiments exposes it as -workers; tests pin it to
// check that parallel and sequential sweeps agree.
var Workers int

// solveAll routes one registered engine over every instance through a
// shared solver.Batch pool, returning per-instance results (with full
// reports) in input order. Instance generation stays on a single
// sequential rng stream and aggregation consumes results by index, so
// every table is bit-identical for any worker count. The sweeps
// compare raw objective values, so the per-task lower-bound block is
// skipped via Request.NoBound.
func solveAll(name string, ins []*core.Instance) []solver.Result {
	eng := solver.MustLookup(name)
	tasks := make([]solver.Task, len(ins))
	for i, in := range ins {
		tasks[i] = solver.Task{Engine: eng, Request: solver.Request{
			Instance: in,
			NoBound:  true,
		}}
	}
	res, _ := solver.Batch(context.Background(), tasks, solver.Options{Workers: Workers})
	return res
}

// Result is one experiment's outcome.
type Result struct {
	ID    string
	Title string
	Table *stats.Table
	Notes []string
	// OK reports whether every paper-claimed value was reproduced.
	OK bool
}

func (r *Result) String() string {
	s := fmt.Sprintf("== %s: %s ==\n%s", r.ID, r.Title, r.Table.String())
	for _, n := range r.Notes {
		s += "note: " + n + "\n"
	}
	if r.OK {
		s += "status: REPRODUCED\n"
	} else {
		s += "status: MISMATCH\n"
	}
	return s
}

// Scale selects how big the experiment runs are.
type Scale int

const (
	// Quick keeps every experiment under a second or two; used by
	// tests and benchmarks.
	Quick Scale = iota
	// Full is the EXPERIMENTS.md configuration.
	Full
)

// All runs every experiment at the given scale with a deterministic
// seed.
func All(scale Scale, seed int64) []*Result {
	return []*Result{
		E1NPGadgetSingle(scale, seed),
		E2InapproxGadget(scale, seed),
		E3TightSingleGen(scale),
		E4NoDRatio(scale, seed),
		E5TightSingleNoD(scale),
		E6NPGadgetMultiple(scale, seed),
		E7MultipleBinOptimal(scale, seed),
		E8GreedyMultiple(scale, seed),
		E9PolicyComparison(scale, seed),
		E10Scaling(scale, seed),
		E11LowerBounds(scale, seed),
		E12FaultTolerance(scale, seed),
		E13ConjectureProbe(scale, seed),
	}
}

// Markdown renders the result as a markdown section, matching the
// style of EXPERIMENTS.md.
func (r *Result) Markdown() string {
	s := fmt.Sprintf("## %s — %s\n\n%s\n", r.ID, r.Title, r.Table.Markdown())
	for _, n := range r.Notes {
		s += "> " + n + "\n"
	}
	if r.OK {
		s += "\n*status: REPRODUCED*\n"
	} else {
		s += "\n*status: MISMATCH*\n"
	}
	return s
}
