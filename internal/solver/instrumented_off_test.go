//go:build !race && !msan && !asan

package solver

import "testing"

// skipIfInstrumented is a no-op in plain builds; see
// instrumented_on_test.go.
func skipIfInstrumented(*testing.T) {}

// instrumented is false in plain builds; see instrumented_on_test.go.
const instrumented = false
