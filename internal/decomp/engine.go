package decomp

import (
	"context"

	"replicatree/internal/core"
	"replicatree/internal/solver"
)

// Engine registration. decomp imports solver, so the registry cannot
// reference this package statically; linking it (a blank import in
// cmd/replica, cmd/goldengen and internal/service) is what makes
// "decomp" resolvable — the auto portfolio then routes oversized
// instances here by name.
func init() {
	solver.MustRegisterEngine(newEngine())
}

// newEngine wraps SolveFlat in the standard engine contract; the
// request's tree is used as it is. The huge-tree paths (cmd/replica
// -stream, the replicabench huge-tree workload) call SolveFlat
// directly. It runs SolveFlat's default Options and reports no work:
// its cost is polynomial, and Report.Work counts search steps only.
func newEngine() solver.Engine {
	caps := solver.Capabilities{
		Name:         solver.Decomp,
		Policy:       core.Multiple,
		SupportsDMax: true,
		Cost:         solver.CostPolynomial,
		MaxNodes:     0, // unbounded: the engine the others route to when they are not
		Description:  "subtree decomposition: partitioned parallel piece solves with boundary coordination",
	}
	return solver.NewEngine(caps, func(ctx context.Context, req solver.Request) (*core.Solution, int64, error) {
		fi := &core.FlatInstance{
			Flat: req.Instance.Tree,
			W:    req.Instance.W,
			DMax: req.Instance.DMax,
		}
		res, err := SolveFlat(ctx, fi, Options{})
		if err != nil {
			return nil, 0, err
		}
		return res.Solution, 0, nil
	})
}
