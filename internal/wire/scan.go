// Package wire is a strict one-pass scanner for the canonical form of
// the JSON wire format: the bytes encoding/json's Marshal writes for
// trees, instances and /v2/solve bodies, give or take whitespace. It
// accepts objects whose keys come, exactly spelled and at most once
// each, from a fixed set; arrays; strings of printable ASCII with no
// escapes; integers with no fraction or exponent, range-checked; and
// true and false.
//
// Anything else makes the scanner decline: escapes, control or
// non-ASCII bytes in a string, unknown, duplicate or differently-cased
// keys, null, floats, leading zeros, overflow, and bytes after the
// value. A decline is not an error and carries no reason. The caller
// then decodes the same bytes with encoding/json, which stays the
// reference: it alone decides which inputs are accepted and what
// every error says. The scanner accepts only inputs that encoding/json
// decodes to the same values, so a decline costs time, never a
// different answer.
//
// Failure is sticky, in the style of an on-demand JSON parser: once a
// Scanner has declined, every method returns a zero value at once, so
// callers scan a whole value and check OK or End once at the end.
//
// Stream frames the values of a stream of concatenated objects off an
// io.Reader, one at a time, for a Scanner to read.
package wire

import (
	"math/bits"
	"sync/atomic"
)

// Scanner reads one JSON value from a byte slice.
type Scanner struct {
	buf []byte
	pos int
	bad bool
}

// referenceOnly makes new Scanners decline at once; see
// SetReferenceOnly.
var referenceOnly atomic.Bool

// SetReferenceOnly makes every Scanner created while it is on decline
// before reading a byte, so the decoders built on this package take
// their encoding/json path. Differential tests use it to run that
// reference through the same entry points and compare the two. It
// returns the previous setting.
func SetReferenceOnly(on bool) bool { return referenceOnly.Swap(on) }

// NewScanner returns a Scanner at the start of buf.
func NewScanner(buf []byte) Scanner {
	return Scanner{buf: buf, bad: referenceOnly.Load()}
}

// OK reports whether the scanner has not declined.
func (s *Scanner) OK() bool { return !s.bad }

// Decline makes the scanner decline, for a value that scanned but
// failed the caller's own checks.
func (s *Scanner) Decline() { s.bad = true }

// Remaining returns the number of bytes not yet scanned.
func (s *Scanner) Remaining() int { return len(s.buf) - s.pos }

// End reports whether the scanner has not declined and nothing but
// whitespace follows the value.
func (s *Scanner) End() bool {
	s.space()
	return !s.bad && s.pos == len(s.buf)
}

func (s *Scanner) space() {
	for s.pos < len(s.buf) {
		switch s.buf[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// next consumes c, after any whitespace, if it is the next byte.
func (s *Scanner) next(c byte) bool {
	s.space()
	if s.pos < len(s.buf) && s.buf[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// expect consumes c after any whitespace, or declines.
func (s *Scanner) expect(c byte) bool {
	if s.bad || !s.next(c) {
		s.bad = true
		return false
	}
	return true
}

// Object consumes the '{' that opens an object.
func (s *Scanner) Object() { s.expect('{') }

// Key scans the next member key of the open object and the colon
// after it; first says no member has been scanned yet. The key aliases
// the input. more is false once the closing '}' is consumed or the
// scanner has declined.
func (s *Scanner) Key(first bool) (key []byte, more bool) {
	if s.bad || s.next('}') {
		return nil, false
	}
	if !first && !s.expect(',') {
		return nil, false
	}
	key = s.str()
	return key, s.expect(':')
}

// Field scans the next member key of the open object and returns its
// index in keys, or -1 once the closing '}' is consumed or the scanner
// has declined. seen holds one bit per key already scanned, zero
// before the first member; a key outside keys, or seen before,
// declines.
//
// Field first tries the key json.Marshal writes next: the lowest index
// not yet seen, as the exact bytes "key": right at the scanner's
// position, after a ',' unless it is the first member. Any other bytes,
// whitespace included, take the general path below. Keys are plain
// ASCII, so the general path would read the same bytes as the same key
// and index; the fast path accepts nothing it would decline.
func (s *Scanner) Field(keys []string, seen *uint64) int {
	if i := bits.TrailingZeros64(^*seen); i < len(keys) && !s.bad && s.nextKey(keys[i], *seen == 0) {
		*seen |= 1 << i
		return i
	}
	key, more := s.Key(*seen == 0)
	if !more {
		return -1
	}
	for i, k := range keys {
		if string(key) == k && *seen&(1<<i) == 0 {
			*seen |= 1 << i
			return i
		}
	}
	s.bad = true
	return -1
}

// nextKey consumes ,"k": (or "k": when first) if those exact bytes
// come next.
func (s *Scanner) nextKey(k string, first bool) bool {
	p := s.pos
	if !first {
		if p >= len(s.buf) || s.buf[p] != ',' {
			return false
		}
		p++
	}
	end := p + len(k) + 3
	if end > len(s.buf) || s.buf[p] != '"' || string(s.buf[p+1:end-2]) != k || s.buf[end-2] != '"' || s.buf[end-1] != ':' {
		return false
	}
	s.pos = end
	return true
}

// Array consumes the '[' that opens an array.
func (s *Scanner) Array() { s.expect('[') }

// Elem reports whether the open array has another element, consuming
// the ',' before it unless first; after the last element it consumes
// the closing ']' and returns false, as it does once the scanner has
// declined.
func (s *Scanner) Elem(first bool) bool {
	if s.bad || s.next(']') {
		return false
	}
	return first || s.expect(',')
}

// str scans a string and returns its contents, aliasing the input.
func (s *Scanner) str() []byte {
	if !s.expect('"') {
		return nil
	}
	start := s.pos
	for ; s.pos < len(s.buf); s.pos++ {
		switch c := s.buf[s.pos]; {
		case c == '"':
			s.pos++
			return s.buf[start : s.pos-1]
		case c < 0x20 || c == '\\' || c >= 0x80:
			s.bad = true
			return nil
		}
	}
	s.bad = true
	return nil
}

// String scans a string and returns a copy of it.
func (s *Scanner) String() string { return string(s.str()) }

// Int scans an integer and declines unless it lies in [lo, hi].
func (s *Scanner) Int(lo, hi int64) int64 {
	s.space()
	if s.bad {
		return 0
	}
	neg := s.pos < len(s.buf) && s.buf[s.pos] == '-'
	if neg {
		s.pos++
	}
	start := s.pos
	var u uint64
	for ; s.pos < len(s.buf) && s.buf[s.pos] >= '0' && s.buf[s.pos] <= '9'; s.pos++ {
		u = u*10 + uint64(s.buf[s.pos]-'0')
	}
	digits := s.pos - start
	// 19 digits hold every int64 and cannot overflow a uint64.
	if digits == 0 || digits > 19 || (digits > 1 && s.buf[start] == '0') {
		s.bad = true
		return 0
	}
	if s.pos < len(s.buf) {
		if c := s.buf[s.pos]; c == '.' || c == 'e' || c == 'E' {
			s.bad = true
			return 0
		}
	}
	var v int64
	switch {
	case neg && u <= 1<<63:
		v = int64(-u) // -(1<<63) wraps to math.MinInt64, as wanted
	case !neg && u <= 1<<63-1:
		v = int64(u)
	default:
		s.bad = true
		return 0
	}
	if v < lo || v > hi {
		s.bad = true
		return 0
	}
	return v
}

// Bool scans true or false.
func (s *Scanner) Bool() bool {
	s.space()
	switch rest := s.buf[s.pos:]; {
	case s.bad:
	case len(rest) >= 4 && string(rest[:4]) == "true":
		s.pos += 4
		return true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		s.pos += 5
		return false
	}
	s.bad = true
	return false
}
