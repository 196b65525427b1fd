// Package decomp implements the subtree decomposition engine: the
// path that solves trees orders of magnitude larger than any
// whole-tree engine handles. The pipeline is fixed:
//
//  1. partition — tree.PartitionPoints and tree.BuildPieces split the
//     tree at articulation subtrees into balanced pieces of about
//     DefaultPieceSize nodes, each a self-contained instance plus a
//     boundary record;
//  2. solve — a pool of GOMAXPROCS goroutines takes the pieces one at
//     a time, builds each one's tree with tree.PieceTree, solves it
//     with the general-arity form of Algorithm 3
//     (multiple.Session.Greedy), verifies the answer and drops the
//     tree, so peak memory is the tree plus one piece tree per worker;
//  3. stitch — piece placements remap from local to global IDs (piece
//     local ID i is Piece.Nodes[i]) into one solution;
//  4. coordinate — a price-guided boundary pass re-splits capacity
//     across the cut edges: the least-loaded boundary replicas (the
//     price signal: spare capacity nobody pays for) export their flow
//     to ancestor replicas above their cut, and retire. Rounds repeat
//     until no replica can be retired or the round budget is spent.
//
// Greedy refuses an instance only when some client has ri > W, and a
// piece keeps W and its clients' rates, so a piece fails exactly when
// the whole tree does: SolveFlat checks that once, before it
// partitions, and no piece is ever merged back.
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
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"replicatree/internal/core"
	"replicatree/internal/multiple"
	"replicatree/internal/tree"
)

const (
	// DefaultPieceSize is the target piece size of the partitioner.
	DefaultPieceSize = 4096
	// coordinationRounds bounds the boundary coordination loop. Rounds
	// are cheap relative to the piece solves (one counting pass that
	// groups the assignments by replica, a sweep of the exported groups
	// and a merge of the moved flow) and the loop stops early at
	// quiescence, so the budget is generous.
	coordinationRounds = 8
)

// Options tunes a decomposition solve.
type Options struct {
	// Verify re-checks the stitched solution against the instance
	// before returning.
	Verify bool
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
	// Pieces is the number of pieces solved. Merged is always 0: no
	// piece fails alone (see the package doc), so none is merged back;
	// the field stays for the readers that report it.
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
// across cut edges). An instance with a client above W returns
// multiple.CheckGreedy's error before any piece is built.
func SolveFlat(ctx context.Context, fi *core.FlatInstance, opt Options) (*Result, error) {
	return solveFlat(ctx, fi, opt.Verify, DefaultPieceSize, coordinationRounds, runtime.GOMAXPROCS(0))
}

// solveFlat is SolveFlat with the pipeline's shape spelled out: the
// partitioner's target piece size, the coordination round budget (0
// skips coordination) and the size of the piece-solve pool. Tests
// force small pieces, no coordination or a given pool through it.
func solveFlat(ctx context.Context, fi *core.FlatInstance, verify bool, pieceSize, rounds, workers int) (*Result, error) {
	begin := time.Now()
	if err := fi.Validate(); err != nil {
		return nil, err
	}
	// Greedy's one refusal, checked once for every piece.
	if err := multiple.CheckGreedy(&core.Instance{Tree: fi.Flat, W: fi.W, DMax: fi.DMax}); err != nil {
		return nil, err
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
	pieces, sol, err := stitch(ctx, fi, pieceSize, workers)
	if err != nil {
		return nil, err
	}
	res := &Result{Workers: workers, Pieces: len(pieces)}
	res.Rounds, res.Moved = coordinate(fi, pieces, sol, rounds)
	sol.Normalize()
	res.Solution = sol
	res.Replicas = sol.NumReplicas()
	<-boundDone
	res.LowerBound = bound
	if res.LowerBound > 0 {
		res.Gap = float64(res.Replicas-res.LowerBound) / float64(res.LowerBound)
	}
	if verify {
		if err := fi.Verify(core.Multiple, sol); err != nil {
			return nil, fmt.Errorf("decomp: stitched solution failed verification: %w", err)
		}
	}
	res.Elapsed = time.Since(begin)
	return res, nil
}

// stitch partitions the tree, solves the pieces and stitches their
// placements into one solution. It returns the pieces and the stitched
// placement that coordination starts from.
func stitch(ctx context.Context, fi *core.FlatInstance, pieceSize, workers int) ([]tree.Piece, *core.Solution, error) {
	pieces := tree.BuildPieces(fi.Flat, tree.PartitionPoints(fi.Flat, pieceSize))
	sol, err := solvePieces(ctx, fi, pieces, workers)
	if err != nil {
		return nil, nil, err
	}
	return pieces, sol, nil
}

// solvePieces solves every piece on a pool of workers goroutines. Each
// takes the next piece, builds its tree, solves and verifies it and
// drops the tree, so at most one piece tree per worker is resident at
// a time. Once every piece has landed, the solutions are stitched in
// piece order. A piece that fails, its tree unbuildable included, is
// a hard error naming the first such piece in piece order (or ctx's
// error once ctx is done).
func solvePieces(ctx context.Context, fi *core.FlatInstance, pieces []tree.Piece, workers int) (*core.Solution, error) {
	outs := make([]pieceOutcome, len(pieces))
	var next atomic.Int32
	var wg sync.WaitGroup
	for range min(workers, len(pieces)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w worker
			for i := int(next.Add(1)) - 1; i < len(pieces); i = int(next.Add(1)) - 1 {
				outs[i] = w.solve(ctx, fi, pieces[i])
			}
		}()
	}
	wg.Wait()
	replicas, assignments := 0, 0
	for i, o := range outs {
		if o.err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return nil, fmt.Errorf("decomp: piece %d: %w", pieces[i].Boundary.Root, o.err)
		}
		replicas += len(o.sol.Replicas)
		assignments += len(o.sol.Assignments)
	}
	// Pieces are disjoint, so plain appends cannot duplicate.
	sol := &core.Solution{
		Replicas:    make([]tree.NodeID, 0, replicas),
		Assignments: make([]core.Assignment, 0, assignments),
	}
	for _, o := range outs {
		sol.Replicas = append(sol.Replicas, o.sol.Replicas...)
		sol.Assignments = append(sol.Assignments, o.sol.Assignments...)
	}
	return sol, nil
}

// pieceOutcome is one piece's result: its solution in global IDs, or
// the error that building its tree, solving it or verifying the answer
// returned.
type pieceOutcome struct {
	sol *core.Solution
	err error
}

// worker is one pool goroutine's working memory, reused across the
// pieces it takes: Algorithm 3's session and the verifier's tables.
type worker struct {
	session multiple.Session
	check   core.Scratch
}

// solve builds piece p's tree, solves it with Greedy and verifies the
// answer under the Multiple policy, under a decomp_piece profile label
// naming the piece root, so that go tool pprof -tags keeps the pieces'
// time apart. The answer is copied out of the session in global IDs
// (piece local ID i is p.Nodes[i]). A piece taken after ctx is done is
// not solved.
func (w *worker) solve(ctx context.Context, fi *core.FlatInstance, p tree.Piece) (out pieceOutcome) {
	if out.err = ctx.Err(); out.err != nil {
		return out
	}
	pt, err := tree.PieceTree(fi.Flat, p)
	if err != nil {
		out.err = err
		return out
	}
	in := &core.Instance{Tree: pt, W: fi.W, DMax: fi.DMax}
	pprof.Do(ctx, pprof.Labels("decomp_piece", strconv.Itoa(int(p.Boundary.Root))), func(context.Context) {
		w.session.Reset(in)
		sol, err := w.session.Greedy()
		if err == nil {
			if err = w.check.Verify(in, core.Multiple, sol); err != nil {
				err = fmt.Errorf("piece solution failed verification: %w", err)
			}
		}
		if err != nil {
			out.err = err
			return
		}
		out.sol = &core.Solution{
			Replicas:    make([]tree.NodeID, len(sol.Replicas)),
			Assignments: make([]core.Assignment, len(sol.Assignments)),
		}
		for k, s := range sol.Replicas {
			out.sol.Replicas[k] = p.Nodes[s]
		}
		for k, a := range sol.Assignments {
			out.sol.Assignments[k] = core.Assignment{Client: p.Nodes[a.Client], Server: p.Nodes[a.Server], Amount: a.Amount}
		}
	})
	return out
}
