package tree_test

import (
	"runtime"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/tree"
)

// stackGrowth runs fn on a fresh goroutine, which starts on a small
// stack, and returns how far the in-use stack grew. StackInuse is read
// on that goroutine before fn returns, so the stack cannot shrink
// first.
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

// TestValidateDeepPath: a path-shaped tree of a million nodes, about
// 40 MB of JSON and so under the service's body cap, validates,
// traverses, bounds and verifies without growing the goroutine stack
// by its depth.
func TestValidateDeepPath(t *testing.T) {
	const n = 1_000_000
	b := tree.NewBuilder()
	b.Grow(n)
	j := b.Root("")
	for i := 1; i < n-1; i++ {
		j = b.Internal(j, 1, "")
	}
	leaf := b.Client(j, 1, 1, "")
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	in := &core.Instance{Tree: tr, W: 1, DMax: core.NoDistance}
	sol := &core.Solution{
		Replicas:    []tree.NodeID{leaf},
		Assignments: []core.Assignment{{Client: leaf, Server: leaf, Amount: 1}},
	}
	var visited int
	var sum int64
	var sub []tree.NodeID
	var bound int
	checks := []struct {
		name string
		fn   func()
	}{
		{"Validate", func() { err = tr.Validate() }},
		{"PostOrder", func() { tr.PostOrder(func(tree.NodeID) { visited++ }) }},
		{"PreOrder", func() { tr.PreOrder(func(tree.NodeID) { visited++ }) }},
		{"Subtree", func() { sub = tr.Subtree(tr.Root()) }},
		{"SubtreeRequests", func() { sum = tr.SubtreeRequests(tr.Root()) }},
		{"core.LowerBound", func() { bound = core.LowerBound(in) }},
		{"core.Verify", func() { err = core.Verify(in, core.Single, sol) }},
	}
	for _, c := range checks {
		if grew := stackGrowth(c.fn); grew >= 16<<20 {
			t.Errorf("%s grew the stack by %d MB on a %d-node path", c.name, grew>>20, n)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	if visited != 2*n || len(sub) != n || sum != 1 || bound != 1 {
		t.Fatalf("visited %d, subtree %d, requests %d, bound %d", visited, len(sub), sum, bound)
	}
}
