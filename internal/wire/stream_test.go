package wire

import (
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// TestStreamFraming pins what framing returns and where it declines,
// on a whole reader and on one that returns a byte per call, and that
// Rest replays the input from the declined value on, the reader's
// error included.
func TestStreamFraming(t *testing.T) {
	errCut := errors.New("cut")
	cases := []struct {
		in     string
		err    error // returned after in, io.EOF if nil
		frames []string
		rest   string // what Rest reads after the last frame, if not End
	}{
		{in: ` {"a":"}]"}` + "\n" + `{"b":[1,{"c":"{"}]}` + "\t\r\n ", frames: []string{`{"a":"}]"}`, `{"b":[1,{"c":"{"}]}`}},
		{in: `{"a":1} [1]`, frames: []string{`{"a":1}`}, rest: `[1]`},
		{in: `{"a":1}{"b":"\""}{"c":3}`, frames: []string{`{"a":1}`}, rest: `{"b":"\""}{"c":3}`},
		{in: `{"a":1}{"b":[2`, frames: []string{`{"a":1}`}, rest: `{"b":[2`},
		{in: `{"a":1}{"b"`, err: errCut, frames: []string{`{"a":1}`}, rest: `{"b"`},
		{in: `{"a":1} `, err: errCut, frames: []string{`{"a":1}`}, rest: ``},
		{in: `{"a":1}x`, frames: []string{`{"a":1}`}, rest: `x`},
	}
	for _, c := range cases {
		for _, oneByte := range []bool{false, true} {
			var r io.Reader = strings.NewReader(c.in)
			if c.err != nil {
				r = io.MultiReader(r, iotest.ErrReader(c.err))
			}
			if oneByte {
				r = iotest.OneByteReader(r)
			}
			st := NewStream(r)
			for _, want := range c.frames {
				if got := st.Next(); string(got) != want {
					t.Fatalf("%q: frame %q, want %q", c.in, got, want)
				}
			}
			if c.rest == "" && c.err == nil {
				if !st.End() {
					t.Fatalf("%q: End false after the last frame", c.in)
				}
				continue
			}
			if st.Next() != nil {
				t.Fatalf("%q: framed past the last frame", c.in)
			}
			got, err := io.ReadAll(st.Rest())
			if string(got) != c.rest || err != c.err {
				t.Fatalf("%q: Rest read %q, error %v; want %q, error %v", c.in, got, err, c.rest, c.err)
			}
		}
	}
}
