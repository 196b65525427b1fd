package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
	"testing/iotest"

	"replicatree/internal/tree"
	"replicatree/internal/wire"
)

// nodesAsTreeJSON re-reads the node records of a chunked stream the way
// ReadChunked consumes them (chunks until the header's count is
// reached, then the end of the stream) and imports them as a tree JSON
// document instead. It reports false when the stream does not read
// that way.
func nodesAsTreeJSON(data []byte) (*Instance, bool) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var h chunkedHeader
	if dec.Decode(&h) != nil || h.Nodes <= 0 {
		return nil, false
	}
	var nodes []chunkedNode
	for len(nodes) < h.Nodes {
		var ch chunkedChunk
		if dec.Decode(&ch) != nil {
			return nil, false
		}
		nodes = append(nodes, ch.Nodes...)
	}
	if _, err := dec.Token(); len(nodes) != h.Nodes || err != io.EOF {
		return nil, false
	}
	doc, err := json.Marshal(map[string]any{"root": 0, "nodes": nodes})
	if err != nil {
		return nil, false
	}
	in := &Instance{Tree: new(tree.Tree), W: h.W, DMax: NoDistance}
	if h.DMax != nil {
		in.DMax = *h.DMax
	}
	if json.Unmarshal(doc, in.Tree) != nil {
		return nil, false
	}
	return in, true
}

// referenceChunked runs ReadChunked with every scanner declining,
// which leaves the encoding/json path alone.
func referenceChunked(r io.Reader) (*FlatInstance, error) {
	defer wire.SetReferenceOnly(wire.SetReferenceOnly(true))
	return ReadChunked(r)
}

// sameChunked fails t unless two ReadChunked results agree: the same
// error text, or the same W, dmax, canonical hash and labels.
func sameChunked(t testing.TB, got *FlatInstance, gotErr error, want *FlatInstance, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("error %v, reference error %v", gotErr, wantErr)
	}
	if gotErr == nil {
		sameInstance(t, &Instance{Tree: got.Flat, W: got.W, DMax: got.DMax},
			&Instance{Tree: want.Flat, W: want.W, DMax: want.DMax})
	}
}

// chunkedStream joins a header and chunks into a stream.
func chunkedStream(values ...string) []byte { return []byte(strings.Join(values, "\n")) }

const seedHeader = `{"format":"replicatree-chunked","version":1,"w":9,"dmax":4,"nodes":4}`

// midStreamSeeds are valid streams on which the one-pass path declines
// after the header, or must frame with care.
var midStreamSeeds = append([][]byte{
	// An escaped label in chunk 3.
	chunkedStream(seedHeader, `{"nodes":[{"id":0,"parent":-1}]}`, `{"nodes":[{"id":1,"parent":0,"dist":1}]}`,
		`{"nodes":[{"id":2,"parent":1,"dist":2,"requests":3,"label":"c\"}2"}]}`, `{"nodes":[{"id":3,"parent":1,"requests":4}]}`),
	// An unknown key, which encoding/json ignores.
	chunkedStream(seedHeader, `{"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"dist":1}]}`,
		`{"nodes":[{"id":2,"parent":1,"dist":2,"requests":3,"weight":7},{"id":3,"parent":1,"requests":4}]}`),
	// A null dmax: no distance bound.
	chunkedStream(`{"format":"replicatree-chunked","version":1,"w":9,"dmax":null,"nodes":4}`,
		`{"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"dist":1},{"id":2,"parent":1,"requests":3},{"id":3,"parent":1,"requests":4}]}`),
	// Brackets inside labels.
	chunkedStream(seedHeader, `{"nodes":[{"id":0,"parent":-1,"label":"}"},{"id":1,"parent":0,"dist":1,"label":"]]{"}]}`,
		`{"nodes":[{"id":2,"parent":1,"requests":3,"label":"a}b"},{"id":3,"parent":1,"requests":4,"label":"{["}]}`),
	// Twelve one-record chunks with an escaped label in chunk 1, 2 or
	// 12, or an unknown key in chunk 3 (chunked_ring_test.go).
}, ringSeeds()...)

// corpusStreams returns the corpus instances as chunked streams of one
// and of five records per chunk.
func corpusStreams(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, file := range corpusFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var in Instance
		if err := json.Unmarshal(data, &in); err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 5} {
			var buf bytes.Buffer
			if err := WriteChunked(&buf, &FlatInstance{Flat: in.Tree, W: in.W, DMax: in.DMax}, chunk); err != nil {
				t.Fatal(err)
			}
			out = append(out, buf.Bytes())
		}
	}
	return out
}

// TestChunkedScansCorpus guards the one-pass path itself: a silent
// decline would hand the stream to encoding/json and lose the gain
// without failing any other test. Every corpus stream, and the seed
// with brackets in its labels, must scan to its end with no hand-off.
func TestChunkedScansCorpus(t *testing.T) {
	for i, data := range append(corpusStreams(t), midStreamSeeds[3]) {
		src := chunkSource{st: wire.NewStream(bytes.NewReader(data))}
		h, err := src.header()
		for n := 0; err == nil && n < h.Nodes; {
			var nodes []tree.NodeRecord
			nodes, err = src.chunk()
			n += len(nodes)
		}
		if err == nil {
			err = src.end()
		}
		if err != nil || src.dec != nil {
			t.Fatalf("stream %d: error %v, handed off %v", i, err, src.dec != nil)
		}
	}
}

// FuzzReadChunked holds the chunked reader to its reference: for any
// bytes, ReadChunked must give the error text, or the instance, that
// the encoding/json path alone gives. An instance it returns must
// validate and hash like the same node records imported as tree JSON.
// It never panics.
func FuzzReadChunked(f *testing.F) {
	for _, data := range append(corpusStreams(f), midStreamSeeds...) {
		f.Add(data)
	}
	for _, c := range ringCases() {
		f.Add(c.fuzzSeed())
	}
	f.Add([]byte(`{"format":"replicatree-chunked","version":1,"w":9,"nodes":4000000000000}`))
	f.Add([]byte(`{"format":"replicatree-chunked","version":1,"w":9,"dmax":3,"nodes":3}` + "\n" +
		`{"nodes":[{"id":0,"parent":-1,"dist":7},{"id":1,"parent":0,"dist":2,"requests":4},{"id":2,"parent":0,"requests":-1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		fi, err := ReadChunked(bytes.NewReader(data))
		want, wantErr := referenceChunked(bytes.NewReader(data))
		sameChunked(t, fi, err, want, wantErr)
		if err != nil {
			return
		}
		if err := fi.Flat.Validate(); err != nil {
			t.Fatalf("ReadChunked returned a tree that does not validate: %v", err)
		}
		if err := fi.Validate(); err != nil {
			t.Fatalf("ReadChunked returned an invalid instance: %v", err)
		}
		in, ok := nodesAsTreeJSON(data)
		if !ok {
			t.Fatal("ReadChunked accepted node records that tree JSON rejects")
		}
		if got, want := fi.CanonicalHash(), in.CanonicalHash(); got != want {
			t.Fatalf("streamed hash %s, tree JSON hash %s", got, want)
		}
	})
}

// TestChunkedReaderShapes feeds the corpus streams through readers
// that return few bytes per call, data together with io.EOF, or an
// error part way through. The window refills at every boundary and
// hands off to the reference mid-value; each result must equal the
// reference's on the same reader, and only the failing reader fails.
func TestChunkedReaderShapes(t *testing.T) {
	errCut := errors.New("connection reset")
	cut := func(data []byte, n int) io.Reader {
		return io.MultiReader(bytes.NewReader(data[:n]), iotest.ErrReader(errCut))
	}
	for i, data := range append(corpusStreams(t), midStreamSeeds...) {
		shapes := map[string]func() io.Reader{
			"one byte": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) },
			"half":     func() io.Reader { return iotest.HalfReader(bytes.NewReader(data)) },
			"data+EOF": func() io.Reader { return iotest.DataErrReader(bytes.NewReader(data)) },
		}
		for name, shape := range shapes {
			got, err := ReadChunked(shape())
			if err != nil {
				t.Fatalf("stream %d, %s reader: %v", i, name, err)
			}
			want, wantErr := referenceChunked(shape())
			sameChunked(t, got, err, want, wantErr)
		}
		for _, n := range []int{0, 1, len(data) / 3, len(data) / 2, len(data) - 1, len(data)} {
			_, err := ReadChunked(cut(data, n))
			if err == nil {
				t.Fatalf("stream %d cut at %d: accepted", i, n)
			}
			_, wantErr := referenceChunked(cut(data, n))
			sameChunked(t, nil, err, nil, wantErr)
		}
	}
}
