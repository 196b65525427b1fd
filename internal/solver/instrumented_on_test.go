//go:build race || msan || asan

package solver

import "testing"

// skipIfInstrumented skips allocation-count assertions under the
// sanitizers: their bookkeeping allocates, and the race detector's
// sync.Pool drops items at random.
func skipIfInstrumented(t *testing.T) {
	t.Skip("sanitizer instrumentation allocates; alloc counts run in plain builds")
}

// instrumented trims the slowest differential tests to a sample.
const instrumented = true
