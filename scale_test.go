package replicatree_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"replicatree/internal/core"
	"replicatree/internal/solver"
	"replicatree/internal/tree"
)

// stackGrowth runs fn on a fresh goroutine, which starts on a small
// stack, and returns how far the in-use stack grew. It is the helper
// of internal/tree/deep_test.go: StackInuse is read on that goroutine
// before fn returns, so the stack cannot shrink first.
func stackGrowth(fn func()) int64 {
	var before, after runtime.MemStats
	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
	}()
	<-done
	return int64(after.StackInuse) - int64(before.StackInuse)
}

// starInstance is a root with n−1 unit clients and W = 4, no distance
// bound: the widest tree of n nodes.
func starInstance(n int) *core.Instance {
	b := tree.NewBuilder()
	b.Grow(n)
	r := b.Root("")
	for i := 1; i < n; i++ {
		b.Client(r, 1, 1, "")
	}
	return &core.Instance{Tree: b.MustBuild(), W: 4, DMax: core.NoDistance}
}

// pathInstance is a path of n nodes ending in one unit client: the
// deepest tree of n nodes.
func pathInstance(n int) *core.Instance {
	b := tree.NewBuilder()
	b.Grow(n)
	j := b.Root("")
	for i := 1; i < n-1; i++ {
		j = b.Internal(j, 1, "")
	}
	b.Client(j, 1, 1, "")
	return &core.Instance{Tree: b.MustBuild(), W: 1, DMax: core.NoDistance}
}

// TestSingleGenWideAndDeep runs every single-* engine, the multiple-*
// engines that accept any arity (multiple-bin too on the path, the one
// binary tree here), decomp and auto (which routes every instance here
// to decomp by size) on 10⁵- and 10⁶-node star and path instances
// through Engine.Solve (10⁵ only under the sanitizers). Each
// answer must pass the solver-free verifier, and no solve may grow the
// goroutine stack by 16 MB: every algorithm walks the stored postorder
// instead of recursing, and builds its solution without a duplicate
// scan per replica. The times are logged, not asserted: a loaded
// machine makes wall-clock bounds flaky.
func TestSingleGenWideAndDeep(t *testing.T) {
	engines := []string{
		solver.SingleGen, solver.SingleNoD, solver.SinglePassUp, solver.SingleBest, solver.SinglePushUp,
		solver.MultipleGreedy, solver.MultipleLazy, solver.MultipleBest, solver.MultipleBin,
		solver.Decomp, solver.Auto,
	}
	sizes := []int{100_000, 1_000_000}
	if instrumented {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		for _, row := range []struct {
			name string
			in   *core.Instance
		}{{"star", starInstance(n)}, {"path", pathInstance(n)}} {
			for _, name := range engines {
				if name == solver.MultipleBin && row.name == "star" {
					continue // not a binary tree
				}
				eng := solver.MustLookup(name)
				var (
					rep solver.Report
					err error
				)
				begin := time.Now()
				grew := stackGrowth(func() { rep, err = eng.Solve(context.Background(), solver.Request{Instance: row.in}) })
				label := fmt.Sprintf("%s %s %d", name, row.name, n)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				t.Logf("%s: %d replicas, %v, stack +%d KB", label, rep.Solution.NumReplicas(), time.Since(begin), grew>>10)
				if err := core.Verify(row.in, eng.Capabilities().Policy, rep.Solution); err != nil {
					t.Errorf("%s: %v", label, err)
				}
				if grew >= 16<<20 {
					t.Errorf("%s: grew the stack by %d MB", label, grew>>20)
				}
			}
		}
	}
}
