package decomp

import (
	"context"
	"strconv"

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
// directly.
//
// Request hints: "decomp-piece-size", "decomp-rounds" and
// "decomp-engine" override the corresponding Options fields.
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
		opt := Options{}
		if v := req.Hint("decomp-piece-size"); v != "" {
			if n, err := strconv.Atoi(v); err == nil && n > 1 {
				opt.TargetPieceSize = n
			}
		}
		if v := req.Hint("decomp-rounds"); v != "" {
			if n, err := strconv.Atoi(v); err == nil {
				opt.Rounds = n
				if n == 0 {
					opt.Rounds = -1
				}
			}
		}
		if v := req.Hint("decomp-engine"); v != "" {
			opt.Engine = v
		}
		fi := &core.FlatInstance{
			Flat: req.Instance.Tree,
			W:    req.Instance.W,
			DMax: req.Instance.DMax,
		}
		res, err := SolveFlat(ctx, fi, opt)
		if err != nil {
			return nil, 0, err
		}
		return res.Solution, int64(res.Pieces), nil
	})
}
