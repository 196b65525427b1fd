package single

import (
	"replicatree/internal/core"
	"replicatree/internal/tree"
)

// Session is the package's implementation of Algorithms 1 and 2 and of
// the push-towards-the-root variants. Bind it to a validated instance
// with Reset, then call Gen/NoD/PassUp/Best/PushUp repeatedly: after
// the first solve has grown the buffers, further solves on the same
// (or a same-shape) instance perform zero heap allocations. Every
// algorithm walks the stored postorder, so no tree shape deepens the
// goroutine stack. The recursive oracles in reference_test.go pin its
// answers.
//
// All working memory lives in the session. Algorithm 1 keeps a
// per-node memo across solves and re-visits only the root paths whose
// inputs changed since its last solve (gen.go), so a session re-solving
// a slightly edited instance does work proportional to the edit.
// Algorithm 2's client bundles are nodes of an arena linked list (so
// merging bundles is O(1) pointer splicing instead of slice appends),
// and its lists Lj are per-node slices reused across solves. Pass-up keeps every pending client on one stack (nod.go).
// The returned *core.Solution is owned by the session and valid only
// until the next solve on it. The session does not verify its answers:
// the solver seam verifies every engine's answer once. A Session is
// not safe for concurrent use.
type Session struct {
	in  *core.Instance
	sol core.Solution
	alt core.Solution // Best holds the pass-up answer here

	gen   genMemo       // Algorithm 1
	arena []cnode       // Algorithm 2 client bundles, reset every solve
	lists [][]nentry    // Algorithm 2: Lj, one per node
	stack []tree.NodeID // pass-up: pending clients
	segs  []upSeg       // pass-up: each finished node's pending set
	push  pushTables    // push-up
}

// cnode is one client bundle in the arena: a (client, r) pair plus the
// index of the next bundle of the same pending set (-1 terminates).
type cnode struct {
	client tree.NodeID
	r      int64
	next   int32
}

// nentry is one element of a pending list Lj of Algorithm 2: a node
// together with the client bundles it carries, kept as an arena list
// [head, tail].
type nentry struct {
	node       tree.NodeID
	total      int64
	head, tail int32
}

// Reset binds the session to an instance. The caller must have
// validated the instance (the solver seam does); Reset
// itself does not allocate. Algorithm 1's memo survives Reset: Gen
// checks it against the newly bound instance.
func (s *Session) Reset(in *core.Instance) {
	s.in = in
}
