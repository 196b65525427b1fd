package wire

import (
	"bytes"
	"io"
	"slices"
)

// Stream frames a stream of concatenated JSON objects, the shape a
// json.Decoder reads, off an io.Reader. It keeps one window over the
// reader, grown to hold the largest value framed, never the whole
// stream.
//
// Framing finds the end of the next top-level object by counting
// brackets outside strings. It does not check the syntax in between:
// that is the Scanner's job, and a frame the Scanner accepts to its
// end is exactly one JSON value. Framing declines, returning nil, on
// any backslash (an escaped quote would throw the count off), on a
// value that does not start with '{', and on an end of input or a read
// error inside a value. After a decline the caller reads on from Rest
// with encoding/json, the reference, which gives its own answer for
// those bytes, error included.
type Stream struct {
	r   io.Reader
	err error  // the reader's first error, io.EOF included
	buf []byte // the window; buf[off:] is the unconsumed input
	off int
	// pend is the length of the frame Next last returned. It counts as
	// consumed once the caller asks for more, so Rest can still replay
	// a frame the caller's scanner declined.
	pend int
}

// minRead is the least free room the window offers a Read.
const minRead = 4096

// NewStream returns a Stream reading r.
func NewStream(r io.Reader) *Stream { return &Stream{r: r} }

// Next consumes the frame it returned last and returns the next
// top-level object, which aliases the window until the next call. It
// returns nil when framing declines; see Stream.
func (st *Stream) Next() []byte {
	if !st.skipSpace() || st.buf[st.off] != '{' {
		return nil
	}
	depth, str := 0, false
	for i := st.off; ; {
		for buf := st.buf; i < len(buf); i++ {
			c := buf[i]
			if !framing[c] {
				continue
			}
			switch {
			case c == '\\':
				return nil
			case c == '"':
				str = !str
			case str:
			case c == '{' || c == '[':
				depth++
			default: // '}' or ']'
				if depth--; depth == 0 {
					st.pend = i + 1 - st.off
					return buf[st.off : i+1]
				}
			}
		}
		i -= st.off // fill slides the value to the front of the window
		if !st.fill() {
			return nil
		}
	}
}

// framing marks the bytes that framing looks at.
var framing = [256]bool{'"': true, '\\': true, '{': true, '[': true, '}': true, ']': true}

// End consumes the frame Next returned last and reports whether only
// whitespace follows it up to the reader's io.EOF.
func (st *Stream) End() bool {
	return !st.skipSpace() && st.err == io.EOF
}

// Rest returns the input not yet consumed: the window from the start
// of the frame Next returned last, or from where framing stopped, then
// the rest of the reader, then the error the reader returned, if it
// was not io.EOF. The Stream must not be used after Rest.
func (st *Stream) Rest() io.Reader {
	w := bytes.NewReader(st.buf[st.off:])
	switch st.err {
	case nil:
		return io.MultiReader(w, st.r)
	case io.EOF:
		return w
	default:
		return io.MultiReader(w, errReader{st.err})
	}
}

// skipSpace consumes the pending frame and any whitespace after it,
// refilling the window, and reports whether a byte follows.
func (st *Stream) skipSpace() bool {
	st.off += st.pend
	st.pend = 0
	for {
		for ; st.off < len(st.buf); st.off++ {
			switch st.buf[st.off] {
			case ' ', '\t', '\n', '\r':
			default:
				return true
			}
		}
		if !st.fill() {
			return false
		}
	}
}

// fill reads more input into the window. It first slides the
// unconsumed input to the front, at most once per value since the
// value then starts at the front, and doubles the window when less
// than minRead is free. It reports false once the reader has returned
// an error and there is nothing new to read.
func (st *Stream) fill() bool {
	if st.err != nil {
		return false
	}
	if st.off > 0 {
		n := copy(st.buf, st.buf[st.off:])
		st.buf, st.off = st.buf[:n], 0
	}
	if cap(st.buf)-len(st.buf) < minRead {
		st.buf = slices.Grow(st.buf, max(len(st.buf), minRead))
	}
	n, err := st.r.Read(st.buf[len(st.buf):cap(st.buf)])
	st.buf = st.buf[:len(st.buf)+n]
	st.err = err
	return n > 0 || err == nil
}

// errReader replays a read error.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }
