package solver

import (
	"sync"

	"replicatree/internal/core"
	"replicatree/internal/lp"
	"replicatree/internal/multiple"
	"replicatree/internal/single"
	"replicatree/internal/tree"
)

// Scratch is the working memory of a solve. The session engines —
// the single-* family, the multiple-* family except multiple-replan,
// and lp-round — solve on its reusable session buffers, and every
// built-in engine's output gate verifies the answer and computes the
// lower bound on its tables. A caller that lends one (Request.Scratch) keeps
// those buffers across solves: after the first solve has grown them, a
// solve on an already-ingested instance performs zero heap allocations
// (the TestAllocs gate pins the count). A caller that lends none gets
// one borrowed from the pool for the duration of the solve. Either way
// the answer is the reference algorithm's (the session parity tests in
// internal/single, internal/multiple and internal/lp pin solution
// equality).
//
// Ingestion is implicit: each session engine ingests the request's
// instance on first sight (the seam has validated it) and binds the
// per-algorithm sessions to it; the sessions read the instance's tree in place. Re-solving
// the same *core.Instance (same tree pointer, W and DMax) skips
// ingestion entirely — that is the hot path. A fresh instance wrapper
// around a tree edited in place re-ingests in O(1), and Algorithm 1's
// memo survives it (single.Session.Gen re-visits only what changed).
//
// Ownership rules:
//   - A Scratch is NOT safe for concurrent use. Never share one
//     across goroutines (the auto portfolio deliberately strips it
//     from its candidate requests for this reason).
//   - Report.Solution from a solve on a lent scratch points into the
//     scratch and is valid only until the next solve on it. Clone the
//     solution before releasing the scratch with PutScratch.
type Scratch struct {
	// Ingest key: pointer identity of the instance and its tree plus
	// the scalar knobs, so a mutated-in-place instance re-ingests.
	in   *core.Instance
	tr   *tree.Tree
	w    int64
	dmax int64

	check    core.Scratch // the output gate's verifier and fillBound's LowerBound tables
	single   single.Session
	multiple multiple.Session

	// The LP relaxation is built lazily on the first lp-round solve of
	// each ingested instance and dropped by PutScratch. It keeps only
	// the sparse constraint rows; the simplex tableau (megabytes at a
	// few hundred nodes) is borrowed from internal/lp's own pool and
	// released by PutScratch, so the pool holds one per concurrent LP
	// solve rather than one per pooled scratch. The session's other
	// buffers (flow network, arc lists, support) stay with the scratch.
	lp      lp.Session
	lpBound bool  // lp.Reset ran for the current instance
	lpErr   error // ... and failed with this error
}

// NewScratch returns a fresh unpooled Scratch. Most callers should
// prefer GetScratch/PutScratch, which amortise buffer growth across
// solves process-wide.
func NewScratch() *Scratch { return new(Scratch) }

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch borrows a Scratch from the process-wide pool. Return it
// with PutScratch when the solve's solution has been copied out.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a Scratch to the pool. The caller must not touch
// the scratch — including any session-owned Solution obtained from it
// — after the call. The scratch is unbound, so its next solve
// re-ingests, its simplex workspace goes back to internal/lp's pool,
// and its LP relaxation is dropped: it is rebuilt for every new
// instance anyway, and kept it would pin the instance. Every
// grow-only buffer stays.
func PutScratch(sc *Scratch) {
	if sc != nil {
		sc.lp.Release()
		sc.in = nil
		scratchPool.Put(sc)
	}
}

// ingest binds the scratch to the instance, which engineCore.Solve
// has validated, (re)binding the sessions. Re-ingesting the instance
// the scratch is already bound to is free. Ingestion may allocate
// (buffer growth, LP matrices); only the subsequent solves are
// allocation-free.
func (sc *Scratch) ingest(in *core.Instance) {
	if sc.in == in && sc.tr == in.Tree && sc.w == in.W && sc.dmax == in.DMax {
		return
	}
	sc.single.Reset(in)
	sc.multiple.Reset(in)
	sc.lpBound = false
	sc.in, sc.tr, sc.w, sc.dmax = in, in.Tree, in.W, in.DMax
}

// lpSession returns the lazily-ingested LP session, or the error the
// relaxation failed to build with (both lp entry points build it with
// the same code, so the reference reports the same error).
func (sc *Scratch) lpSession() (*lp.Session, error) {
	if !sc.lpBound {
		sc.lpBound = true
		sc.lpErr = sc.lp.Reset(sc.in)
	}
	return &sc.lp, sc.lpErr
}
