//go:build !race && !msan && !asan

package replicatree_test

import "testing"

// skipIfInstrumented is a no-op in plain builds; the instrumented
// variant (instrumented_on_test.go) skips the allocation gate, whose
// zero-alloc invariant does not survive sanitizer bookkeeping.
func skipIfInstrumented(*testing.T) {}

// instrumented reports whether the sanitizers are off. Scale tests drop their
// largest sizes under them: shadow memory makes a 10⁶-node solve
// minutes long.
const instrumented = false
