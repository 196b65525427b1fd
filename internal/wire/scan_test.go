package wire

import (
	"math"
	"testing"
)

// TestIntBounds pins the integer grammar at its edges: every int64 is
// accepted, and anything encoding/json would reject for an int64 field
// or read differently is declined.
func TestIntBounds(t *testing.T) {
	accept := map[string]int64{
		"0":                    0,
		"-0":                   0,
		"7":                    7,
		"9223372036854775807":  math.MaxInt64,
		"-9223372036854775808": math.MinInt64,
	}
	for in, want := range accept {
		s := NewScanner([]byte(in))
		if got := s.Int(math.MinInt64, math.MaxInt64); !s.End() || got != want {
			t.Errorf("%q: got %d (ok %v), want %d", in, got, s.OK(), want)
		}
	}
	for _, in := range []string{
		"", "-", "01", "-01", "1.5", "1e2", "1E2", "+1", " ", "null",
		"9223372036854775808", "-9223372036854775809", "99999999999999999999",
	} {
		s := NewScanner([]byte(in))
		if s.Int(math.MinInt64, math.MaxInt64); s.End() {
			t.Errorf("%q: accepted", in)
		}
	}
	s := NewScanner([]byte("2147483648"))
	if s.Int(math.MinInt32, math.MaxInt32); s.OK() {
		t.Error("2147483648 accepted for an int32")
	}
}
