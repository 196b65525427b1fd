//go:build race || msan || asan

package replicatree_test

import "testing"

// skipIfInstrumented skips allocation-count assertions under the
// sanitizers: their shadow-memory bookkeeping allocates on paths the
// plain runtime keeps allocation-free.
func skipIfInstrumented(t *testing.T) {
	t.Skip("sanitizer instrumentation allocates; alloc gate runs in plain builds")
}

// instrumented reports whether the sanitizers are on. Scale tests drop their
// largest sizes under them: shadow memory makes a 10⁶-node solve
// minutes long.
const instrumented = true
