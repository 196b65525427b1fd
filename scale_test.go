package replicatree_test

import (
	"context"
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

// TestSingleGenWideAndDeep runs single-gen on a 10⁵-node star and a
// 10⁵-node path through Engine.Solve. Each answer must pass the
// solver-free verifier, and neither solve may grow the goroutine stack
// by 16 MB: Algorithm 1 walks the stored postorder instead of
// recursing, and builds its solution by ID scans, not by a duplicate
// scan per replica.
func TestSingleGenWideAndDeep(t *testing.T) {
	const n = 100_000
	eng := solver.MustLookup(solver.SingleGen)
	for _, row := range []struct {
		name string
		in   *core.Instance
	}{{"star", starInstance(n)}, {"path", pathInstance(n)}} {
		var (
			rep solver.Report
			err error
		)
		begin := time.Now()
		grew := stackGrowth(func() { rep, err = eng.Solve(context.Background(), solver.Request{Instance: row.in}) })
		t.Logf("%s: %d nodes, %d replicas, %v, stack +%d KB", row.name, n, rep.Solution.NumReplicas(), time.Since(begin), grew>>10)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if err := core.Verify(row.in, core.Single, rep.Solution); err != nil {
			t.Errorf("%s: %v", row.name, err)
		}
		if grew >= 16<<20 {
			t.Errorf("%s: single-gen grew the stack by %d MB", row.name, grew>>20)
		}
	}
}
