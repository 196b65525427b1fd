package wire

import (
	"math"
	"slices"
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

// TestField runs Field over objects whose members are all integers,
// recording the index sequence, and checks it and OK against what the
// general key path gives. The rows exercise the key-order fast path at
// its edges: it must accept exactly what the general path accepts and
// map it to the same index and seen bit.
func TestField(t *testing.T) {
	keys := []string{"id", "parent", "dist"}
	for _, tc := range []struct {
		name, in string
		want     []int
		ok       bool
	}{
		{"in order", `{"id":1,"parent":2,"dist":3}`, []int{0, 1, 2}, true},
		{"prefix of the keys", `{"id":1}`, []int{0}, true},
		{"out of order", `{"dist":3,"id":1,"parent":2}`, []int{2, 0, 1}, true},
		{"skipped key", `{"id":1,"dist":3}`, []int{0, 2}, true},
		{"space before a key", `{ "id":1, "parent":2}`, []int{0, 1}, true},
		{"space before a colon", `{"id" :1,"parent"	:2}`, []int{0, 1}, true},
		{"space before a comma", `{"id":1 ,"parent":2}`, []int{0, 1}, true},
		{"repeated key after a fast match", `{"id":1,"id":2}`, []int{0}, false},
		{"repeated key after an out-of-order match", `{"parent":2,"id":1,"parent":3}`, []int{1, 0}, false},
		{"escaped key", `{"\u0069d":1}`, nil, false},
		{"escaped later key", `{"id":1,"p\u0061rent":2}`, []int{0}, false},
		{"longer key sharing a prefix", `{"idx":1}`, nil, false},
		{"unterminated key sharing a prefix", `{"idx:1,"parent":2}`, nil, false},
		{"shorter key", `{"i":1}`, nil, false},
		{"differently cased key", `{"ID":1}`, nil, false},
		{"missing comma", `{"id":1"parent":2}`, []int{0}, false},
		{"missing colon", `{"id"1}`, nil, false},
		{"leading comma", `{,"id":1}`, nil, false},
		{"empty object", `{}`, nil, true},
		{"empty object with space", `{ }`, nil, true},
		{"truncated key", `{"id`, nil, false},
		{"truncated after a key", `{"id":1,"parent"`, []int{0}, false},
	} {
		s := NewScanner([]byte(tc.in))
		s.Object()
		var seen uint64
		var got []int
		for i := s.Field(keys, &seen); i >= 0; i = s.Field(keys, &seen) {
			got = append(got, i)
			s.Int(0, 9)
		}
		if !slices.Equal(got, tc.want) || s.End() != tc.ok {
			t.Errorf("%s: %s gave %v (ok %v), want %v (ok %v)", tc.name, tc.in, got, s.OK(), tc.want, tc.ok)
		}
	}
}
