// Package decomp implements the subtree decomposition engine: the
// path that solves trees orders of magnitude larger than any
// whole-tree engine handles. The pipeline is
//
//  1. partition — tree.PartitionPoints and tree.BuildPieces split the
//     tree at articulation subtrees into balanced pieces (target size
//     configurable), each a self-contained instance plus a boundary
//     record;
//  2. solve — a pool of Workers goroutines takes the pieces one at a
//     time, builds each one's tree with tree.PieceTree, solves it with
//     the inner engine and drops the tree, so peak memory is the tree
//     plus at most Workers piece trees;
//  3. stitch — piece placements remap from local to global IDs (piece
//     local ID i is Piece.Nodes[i]) into one solution, merging back
//     any piece whose isolated instance was infeasible;
//  4. coordinate — a price-guided boundary pass re-splits capacity
//     across the cut edges: the least-loaded boundary replicas (the
//     price signal: spare capacity nobody pays for) export their flow
//     to ancestor replicas above their cut, and retire. Rounds repeat
//     until no replica can be retired or the round budget is spent.
//
// The result reports Gap against the subtree-sum lower bound of the
// whole tree, computed on a core the serial stages leave idle, so a
// caller knows how far the decomposition
// is from the global optimum without any engine able to certify it at
// this scale.
package decomp

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"replicatree/internal/core"
	"replicatree/internal/solver"
	"replicatree/internal/tree"
)

const (
	// DefaultPieceSize is the target piece size of the partitioner.
	DefaultPieceSize = 4096
	// DefaultRounds bounds the boundary coordination loop. Rounds are
	// cheap relative to the piece solves (one counting pass that groups
	// the assignments by replica, a sweep of the exported groups and a
	// merge of the moved flow) and the loop stops early at quiescence,
	// so the default is generous.
	DefaultRounds = 8
	// DefaultEngine solves the individual pieces.
	DefaultEngine = solver.MultipleGreedy
)

// Options tunes a decomposition solve.
type Options struct {
	// TargetPieceSize is the partitioner's target piece size
	// (0 = DefaultPieceSize).
	TargetPieceSize int
	// Engine names the registered engine that solves each piece
	// ("" = DefaultEngine). It must support the Multiple policy.
	Engine string
	// Rounds bounds boundary coordination (0 = DefaultRounds,
	// negative = no coordination).
	Rounds int
	// Workers bounds the piece-solve worker pool (0 = GOMAXPROCS).
	Workers int
	// Verify re-checks the stitched solution against the instance
	// before returning.
	Verify bool
}

func (o Options) norm() Options {
	if o.TargetPieceSize <= 0 {
		o.TargetPieceSize = DefaultPieceSize
	}
	if o.Engine == "" {
		o.Engine = DefaultEngine
	}
	if o.Rounds == 0 {
		o.Rounds = DefaultRounds
	} else if o.Rounds < 0 {
		o.Rounds = 0
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Result is the outcome of a decomposition solve.
type Result struct {
	// Solution is the stitched, normalised global placement.
	Solution *core.Solution
	// Replicas is the objective |R|.
	Replicas int
	// LowerBound is the subtree-sum lower bound of the whole instance
	// and Gap the relative distance of Replicas above it
	// ((Replicas-LowerBound)/LowerBound).
	LowerBound int
	Gap        float64
	// Pieces is the number of pieces actually solved (after merges);
	// Merged counts pieces merged back because their isolated
	// instance was infeasible.
	Pieces int
	Merged int
	// Rounds is the number of coordination rounds executed and Moved
	// the number of boundary replicas they retired.
	Rounds int
	Moved  int
	// Workers is the piece-solve parallelism used.
	Workers int
	Elapsed time.Duration
}

// SolveFlat runs the decomposition pipeline on an instance. The
// returned solution follows the Multiple access policy (piece
// placements may be single-assignment, but coordination splits flows
// across cut edges).
func SolveFlat(ctx context.Context, fi *core.FlatInstance, opt Options) (*Result, error) {
	begin := time.Now()
	if err := fi.Validate(); err != nil {
		return nil, err
	}
	opt = opt.norm()
	eng, err := solver.Lookup(opt.Engine)
	if err != nil {
		return nil, fmt.Errorf("decomp: inner engine: %w", err)
	}
	// The bound only reads the tree: it runs on a core the serial
	// stages (partition, stitch, coordinate) leave idle, and every
	// return waits for it.
	var bound int
	boundDone := make(chan struct{})
	go func() {
		defer close(boundDone)
		bound = fi.LowerBound()
	}()
	defer func() { <-boundDone }()
	pieces, sol, merged, err := stitch(ctx, fi, eng, opt)
	if err != nil {
		return nil, err
	}
	res := &Result{Workers: opt.Workers, Pieces: len(pieces), Merged: merged}
	res.Rounds, res.Moved = coordinate(fi, pieces, sol, opt.Rounds)
	sol.Normalize()
	res.Solution = sol
	res.Replicas = sol.NumReplicas()
	<-boundDone
	res.LowerBound = bound
	if res.LowerBound > 0 {
		res.Gap = float64(res.Replicas-res.LowerBound) / float64(res.LowerBound)
	}
	if opt.Verify {
		if err := fi.Verify(core.Multiple, sol); err != nil {
			return nil, fmt.Errorf("decomp: stitched solution failed verification: %w", err)
		}
	}
	res.Elapsed = time.Since(begin)
	return res, nil
}

// stitch partitions the tree, solves the pieces and stitches their
// placements into one solution, merging failed pieces back until every
// piece solves. It returns the pieces, the stitched placement that
// coordination starts from and the number of pieces merged back.
func stitch(ctx context.Context, fi *core.FlatInstance, eng solver.Engine, opt Options) (pieces []tree.Piece, sol *core.Solution, merged int, err error) {
	f := fi.Flat
	cuts := tree.PartitionPoints(f, opt.TargetPieceSize)
	sol = &core.Solution{}
	for {
		pieces = tree.BuildPieces(f, cuts)
		sol.Replicas = sol.Replicas[:0]
		sol.Assignments = sol.Assignments[:0]
		failed, err := solvePieces(ctx, fi, eng, pieces, opt, sol)
		if err != nil {
			return nil, nil, 0, err
		}
		if len(failed) == 0 {
			return pieces, sol, merged, nil
		}
		// An infeasible piece couples too tightly to its surroundings
		// (typically a client that needs ancestor capacity above the
		// cut): merge it back by dropping its cut and re-solve. A
		// failing root piece has no cut of its own, so it absorbs
		// everything — the undecomposed fallback.
		merged += len(failed)
		if failed[0] == f.Root() {
			cuts = nil
		} else {
			cuts = removeCuts(cuts, failed)
		}
	}
}

// solvePieces solves every piece on a pool of opt.Workers goroutines.
// Each takes the next piece, builds its tree, solves it and drops the
// tree, so at most Workers piece trees are resident at a time. Once
// every piece has landed, the solutions are stitched into sol in piece
// order. It returns the piece roots whose isolated solves failed
// (merge candidates); a failure with nothing left to merge is a hard
// error, and so is a piece tree that cannot be built, named by the
// first such piece in piece order.
func solvePieces(ctx context.Context, fi *core.FlatInstance, eng solver.Engine, pieces []tree.Piece, opt Options, sol *core.Solution) ([]tree.NodeID, error) {
	outs := make([]pieceOutcome, len(pieces))
	var next atomic.Int32
	var wg sync.WaitGroup
	for range min(opt.Workers, len(pieces)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(pieces); i = int(next.Add(1)) - 1 {
				outs[i] = solvePiece(ctx, fi, eng, pieces[i])
			}
		}()
	}
	wg.Wait()
	for i := range outs {
		if err := outs[i].treeErr; err != nil {
			return nil, fmt.Errorf("decomp: piece %d: %w", pieces[i].Boundary.Root, err)
		}
	}
	var failed []tree.NodeID
	for i, o := range outs {
		p := &pieces[i]
		if o.err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			if len(pieces) == 1 {
				return nil, fmt.Errorf("decomp: %s failed on the undecomposed tree: %w", eng.Name(), o.err)
			}
			failed = append(failed, p.Boundary.Root)
			continue
		}
		// Remap local IDs to global: piece local ID i is p.Nodes[i].
		// Pieces are disjoint, so plain appends cannot duplicate.
		for _, s := range o.sol.Replicas {
			sol.Replicas = append(sol.Replicas, p.Nodes[s])
		}
		for _, a := range o.sol.Assignments {
			sol.Assignments = append(sol.Assignments, core.Assignment{
				Client: p.Nodes[a.Client],
				Server: p.Nodes[a.Server],
				Amount: a.Amount,
			})
		}
	}
	return failed, nil
}

// pieceOutcome is one piece's result: its solution in local IDs, or
// the error that building its tree or solving it returned.
type pieceOutcome struct {
	sol     *core.Solution
	treeErr error
	err     error
}

// solvePiece builds piece p's tree and solves it with eng, under the
// batch_engine and batch_task profile labels that solver.Batch sets,
// so that go tool pprof -tags keeps the pieces' time apart. A piece
// taken after ctx is done is not solved.
func solvePiece(ctx context.Context, fi *core.FlatInstance, eng solver.Engine, p tree.Piece) (out pieceOutcome) {
	if out.err = ctx.Err(); out.err != nil {
		return out
	}
	pt, err := tree.PieceTree(fi.Flat, p)
	if err != nil {
		out.treeErr = err
		return out
	}
	labels := pprof.Labels("batch_engine", eng.Name(), "batch_task", fmt.Sprintf("piece-%d", p.Boundary.Root))
	pprof.Do(ctx, labels, func(ctx context.Context) {
		rep, err := eng.Solve(ctx, solver.Request{
			Instance: &core.Instance{Tree: pt, W: fi.W, DMax: fi.DMax},
			// The global bound is computed once on the tree;
			// per-piece bounds would only burn time.
			NoBound: true,
		})
		out.sol, out.err = rep.Solution, err
	})
	return out
}

// removeCuts returns cuts minus the drop set (both small; the merge
// path runs at most a handful of times).
func removeCuts(cuts, drop []tree.NodeID) []tree.NodeID {
	gone := make(map[tree.NodeID]bool, len(drop))
	for _, d := range drop {
		gone[d] = true
	}
	out := cuts[:0]
	for _, c := range cuts {
		if !gone[c] {
			out = append(out, c)
		}
	}
	return out
}
