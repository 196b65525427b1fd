package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"testing/iotest"
	"time"
)

// The ring streams: a twelve-node tree, node j's parent (j-1)/2 and
// nodes 6 to 11 its clients, sent as twelve one-record chunks, so
// that a fault placed in chunk k meets the ring with chunks before and
// after it in flight. A backslash makes framing decline; an unknown
// key or a fraction frames but makes the scan decline, so the
// reference reads the frames copied after it.

const ringHeader = `{"format":"replicatree-chunked","version":1,"w":9,"dmax":6,"nodes":12}`

// ringRecord is node j's record, with extra appended inside it.
func ringRecord(j int, extra string) string {
	if j == 0 {
		return `{"id":0,"parent":-1` + extra + `}`
	}
	if j >= 6 {
		extra = fmt.Sprintf(`,"requests":%d`, j-4) + extra
	}
	return fmt.Sprintf(`{"id":%d,"parent":%d,"dist":1%s}`, j, (j-1)/2, extra)
}

// ringStream joins the header and the twelve chunks, chunk k (counted
// from 1) replaced by edits[k] where given, and appends tail.
func ringStream(edits map[int]string, tail string) []byte {
	values := []string{ringHeader}
	for k := 1; k <= 12; k++ {
		c, ok := edits[k]
		if !ok {
			c = `{"nodes":[` + ringRecord(k-1, "") + `]}`
		}
		values = append(values, c)
	}
	return append(chunkedStream(values...), tail...)
}

// escapedLabelIn is the ring stream with an escaped quote and a brace
// in chunk k's label.
func escapedLabelIn(k int) []byte {
	return ringStream(map[int]string{k: `{"nodes":[` + ringRecord(k-1, `,"label":"q\"}x"`) + `]}`}, "")
}

// ringCase is one ring stream, valid or not; a cut case ends its
// reader with an error inside chunk cutIn.
type ringCase struct {
	name  string
	data  []byte
	valid bool
	cutIn int
}

func ringCases() []ringCase {
	return []ringCase{
		{name: "escaped label in chunk 1", data: escapedLabelIn(1), valid: true},
		{name: "escaped label in chunk 2", data: escapedLabelIn(2), valid: true},
		{name: "escaped label in the last chunk", data: escapedLabelIn(12), valid: true},
		{name: "an unknown key in chunk 3", data: ringStream(map[int]string{3: `{"nodes":[` + ringRecord(2, `,"weight":7`) + `]}`}, ""), valid: true},
		{name: "a fraction in chunk 4", data: ringStream(map[int]string{4: `{"nodes":[{"id":3,"parent":1,"dist":1.5}]}`}, "")},
		{name: "backslash outside a string in chunk 5", data: ringStream(map[int]string{5: `{"nodes":[\` + ringRecord(4, "") + `]}`}, "")},
		{name: "out-of-order ID in chunk 7", data: ringStream(map[int]string{7: `{"nodes":[{"id":7,"parent":2,"requests":1}]}`}, "")},
		{name: "bad parent in chunk 6", data: ringStream(map[int]string{6: `{"nodes":[{"id":5,"parent":9,"dist":1}]}`}, "")},
		{name: "a valid chunk past the header's count", data: ringStream(nil, "\n"+`{"nodes":[{"id":12,"parent":5,"dist":1,"requests":1}]}`)},
		{name: "trailing garbage", data: ringStream(nil, "\n garbage")},
		{name: "cut inside chunk 9", data: ringStream(nil, ""), cutIn: 9},
	}
}

// reader returns a reader of the case's stream: the whole of it, or
// the bytes up to the middle of chunk cutIn followed by an error.
func (c ringCase) reader() io.Reader {
	if c.cutIn == 0 {
		return bytes.NewReader(c.data)
	}
	return io.MultiReader(bytes.NewReader(c.data[:c.cut()]), iotest.ErrReader(errors.New("connection reset")))
}

// cut is the offset of the middle of chunk cutIn.
func (c ringCase) cut() int {
	at := bytes.Index(c.data, []byte(`{"nodes":[`+ringRecord(c.cutIn-1, "")))
	return at + len(`{"nodes":[`+ringRecord(c.cutIn-1, ""))/2
}

// fuzzSeed is the case as bytes: a cut case ends at its cut.
func (c ringCase) fuzzSeed() []byte {
	if c.cutIn == 0 {
		return c.data
	}
	return c.data[:c.cut()]
}

// ringSeeds are the valid ring streams.
func ringSeeds() [][]byte {
	var out [][]byte
	for _, c := range ringCases() {
		if c.valid {
			out = append(out, c.data)
		}
	}
	return out
}

// settleGoroutines fails t unless the goroutine count comes back to
// want within about a second: no reader goroutine may outlive a read.
func settleGoroutines(t testing.TB, want int, what string) {
	t.Helper()
	for i := 0; ; i++ {
		n := runtime.NumGoroutine()
		if n <= want {
			return
		}
		if i == 100 {
			t.Fatalf("%s: %d goroutines after the read, %d before", what, n, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChunkedRingMatchesReference: every ring stream reads as the
// reference reads it, the same error text or the same instance,
// whether a fault sits in the first chunk, in the middle with chunks
// in flight on both sides, past the header's count or in the reader
// itself, and no goroutine outlives the read.
func TestChunkedRingMatchesReference(t *testing.T) {
	for _, c := range ringCases() {
		for _, shape := range []string{"whole", "one byte"} {
			read := func() io.Reader {
				if shape == "one byte" {
					return iotest.OneByteReader(c.reader())
				}
				return c.reader()
			}
			start := runtime.NumGoroutine()
			got, err := ReadChunked(read())
			settleGoroutines(t, start, c.name)
			want, wantErr := referenceChunked(read())
			if (wantErr == nil) != c.valid {
				t.Fatalf("%s, %s reader: the reference's error is %v", c.name, shape, wantErr)
			}
			t.Run(c.name+"/"+shape, func(t *testing.T) {
				t.Logf("reference error: %v", wantErr)
				sameChunked(t, got, err, want, wantErr)
			})
		}
	}
}

// TestChunkedCutReadersLeaveNoGoroutines runs the cut readers of
// TestChunkedReaderShapes again and checks that every read, however
// far into the stream its reader fails, leaves no goroutine behind.
func TestChunkedCutReadersLeaveNoGoroutines(t *testing.T) {
	errCut := errors.New("connection reset")
	for i, data := range append(corpusStreams(t), midStreamSeeds...) {
		for _, n := range []int{0, 1, len(data) / 3, len(data) / 2, len(data) - 1, len(data)} {
			start := runtime.NumGoroutine()
			if _, err := ReadChunked(io.MultiReader(bytes.NewReader(data[:n]), iotest.ErrReader(errCut))); err == nil {
				t.Fatalf("stream %d cut at %d: accepted", i, n)
			}
			settleGoroutines(t, start, fmt.Sprintf("stream %d cut at %d", i, n))
		}
	}
}
