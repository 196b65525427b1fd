package core

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"replicatree/internal/tree"
)

// nodesAsTreeJSON re-reads the node records of a chunked stream the way
// ReadChunked consumes them (chunks until the header's count is
// reached) and imports them as a tree JSON document instead. It
// reports false when the stream does not get that far.
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

// FuzzReadChunked: for any bytes, ReadChunked returns an error or an
// instance that validates and hashes like the same node records
// imported as tree JSON. It never panics.
func FuzzReadChunked(f *testing.F) {
	for _, file := range corpusFiles(f) {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		var in Instance
		if err := json.Unmarshal(data, &in); err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteChunked(&buf, &FlatInstance{Flat: in.Tree, W: in.W, DMax: in.DMax}, 5); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"format":"replicatree-chunked","version":1,"w":9,"nodes":4000000000000}`))
	f.Add([]byte(`{"format":"replicatree-chunked","version":1,"w":9,"dmax":3,"nodes":3}` + "\n" +
		`{"nodes":[{"id":0,"parent":-1,"dist":7},{"id":1,"parent":0,"dist":2,"requests":4},{"id":2,"parent":0,"requests":-1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		fi, err := ReadChunked(bytes.NewReader(data))
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
