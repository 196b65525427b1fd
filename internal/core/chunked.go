package core

// This file implements the chunked instance representation: a
// streaming wire format, so a million-node tree is ingested
// piece-by-piece off an io.Reader instead of one json.Unmarshal of a
// full-tree blob. Besides the tree's arrays, the read side holds one
// chunk of node records and a window of raw bytes at most about twice
// a chunk's length; there is never a second full-tree copy (raw JSON)
// resident. The arrays grow by append as records arrive, though, so a
// grow briefly holds an old and a new array, and the grows allocate
// about 5× the final arrays in all. cmd/treegen emits the format
// with -stream, cmd/replica consumes it with -stream, and the decomp
// engine solves the resulting FlatInstance.
//
// Wire layout: a header value followed by any number of chunk values,
// concatenated back-to-back (the natural json.Decoder stream shape):
//
//	{"format":"replicatree-chunked","version":1,"w":9,"dmax":40,"nodes":7}
//	{"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"dist":2,"requests":5},...]}
//	{"nodes":[...]}
//
// "dmax" is omitted for NoD instances, mirroring the Instance codec.
// Node records must arrive in dense increasing ID order with every
// parent before its child (the root is ID 0 with parent -1) — exactly
// what preorder emission produces and what tree.Builder ingests.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"replicatree/internal/tree"
	"replicatree/internal/wire"
)

// ChunkedFormat is the format tag in the stream header.
const ChunkedFormat = "replicatree-chunked"

// ChunkedVersion is the current wire version.
const ChunkedVersion = 1

// DefaultChunkNodes is the default number of node records per chunk
// value on the write side.
const DefaultChunkNodes = 8192

// FlatInstance is the instance form of the huge-tree path: ReadChunked
// produces it and decomp.SolveFlat consumes it. It holds the same tree
// an Instance does.
type FlatInstance struct {
	Flat *tree.Tree
	// W is the per-server capacity, DMax the distance bound
	// (NoDistance for NoD instances), with the same semantics as the
	// Instance fields.
	W    int64
	DMax int64
}

// NoD reports whether the instance ignores distances.
func (fi *FlatInstance) NoD() bool { return fi.DMax == NoDistance }

// Validate checks the parameter invariants (the tree itself is
// validated at build time).
func (fi *FlatInstance) Validate() error {
	if fi.Flat == nil || fi.Flat.Len() == 0 {
		return errors.New("core: instance has no tree")
	}
	return validateParams(fi.W, fi.DMax)
}

// LowerBound is LowerBound of the instance.
func (fi *FlatInstance) LowerBound() int {
	return LowerBound(&Instance{Tree: fi.Flat, W: fi.W, DMax: fi.DMax})
}

// Verify is Scratch.Verify of the instance on a fresh scratch: the
// tree was validated when it was built.
func (fi *FlatInstance) Verify(pol Policy, sol *Solution) error {
	return new(Scratch).Verify(&Instance{Tree: fi.Flat, W: fi.W, DMax: fi.DMax}, pol, sol)
}

// CanonicalHash is the CanonicalHash of the instance.
func (fi *FlatInstance) CanonicalHash() string {
	return (&Instance{Tree: fi.Flat, W: fi.W, DMax: fi.DMax}).CanonicalHash()
}

// chunkedHeader is the first JSON value of a chunked stream.
type chunkedHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	W       int64  `json:"w"`
	DMax    *int64 `json:"dmax,omitempty"`
	Nodes   int    `json:"nodes"`
}

// chunkedNode is one node record as WriteChunked writes it: the fields
// of tree.NodeRecord, so the two formats describe nodes identically,
// but with a zero dist omitted too. ReadChunked reads tree.NodeRecord.
type chunkedNode struct {
	ID       tree.NodeID `json:"id"`
	Parent   tree.NodeID `json:"parent"`
	Dist     int64       `json:"dist,omitempty"`
	Requests int64       `json:"requests,omitempty"`
	Label    string      `json:"label,omitempty"`
}

// chunkedChunk is one chunk value carrying a run of node records, as
// WriteChunked writes it.
type chunkedChunk struct {
	Nodes []chunkedNode `json:"nodes"`
}

// WriteChunked emits fi on w in the chunked wire format,
// chunkNodes records per chunk (0 means DefaultChunkNodes). The
// tree's IDs must be topological (root 0, every parent before its
// child) so a streaming reader can rebuild it in one pass.
func WriteChunked(w io.Writer, fi *FlatInstance, chunkNodes int) error {
	if err := fi.Validate(); err != nil {
		return err
	}
	if chunkNodes <= 0 {
		chunkNodes = DefaultChunkNodes
	}
	f := fi.Flat
	n := f.Len()
	if f.Root() != 0 {
		return fmt.Errorf("core: chunked format needs root ID 0, got %d", f.Root())
	}
	for j := 1; j < n; j++ {
		if p := f.Parents[j]; p < 0 || p >= tree.NodeID(j) {
			return fmt.Errorf("core: chunked format needs topological IDs; node %d has parent %d", j, p)
		}
	}
	enc := json.NewEncoder(w)
	h := chunkedHeader{Format: ChunkedFormat, Version: ChunkedVersion, W: fi.W, Nodes: n}
	if !fi.NoD() {
		d := fi.DMax
		h.DMax = &d
	}
	if err := enc.Encode(h); err != nil {
		return err
	}
	buf := make([]chunkedNode, 0, chunkNodes)
	for j := 0; j < n; j++ {
		nd := chunkedNode{
			ID:       tree.NodeID(j),
			Parent:   f.Parents[j],
			Dist:     f.EdgeLens[j],
			Requests: f.Reqs[j],
			Label:    f.Labels[j],
		}
		if j == 0 {
			nd.Parent = tree.None
			nd.Dist = 0
		}
		buf = append(buf, nd)
		if len(buf) == chunkNodes {
			if err := enc.Encode(chunkedChunk{Nodes: buf}); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		return enc.Encode(chunkedChunk{Nodes: buf})
	}
	return nil
}

// ReadChunked ingests a chunked stream from r and returns the rebuilt
// instance. Decoding is incremental: one window over r and one chunk
// of node records are resident at a time, the records feeding a
// tree.Builder, whose arrays grow by append (about 1.25× a grow at
// this size: a 250k-node read allocates about 56 MB, 5× the arrays it
// ends with). Canonical values are framed and scanned in one pass
// (package wire); from the first value that is not, encoding/json, the
// reference, decodes the rest of the stream, that value included. The
// header's node count is a claim, not a size: the builder reserves at
// most one chunk's worth for it. The chunks must carry exactly that
// many nodes, and only whitespace may follow the last of them.
func ReadChunked(r io.Reader) (*FlatInstance, error) {
	src := chunkSource{st: wire.NewStream(r)}
	h, err := src.header()
	if err != nil {
		return nil, fmt.Errorf("core: chunked header: %w", err)
	}
	if h.Format != ChunkedFormat {
		return nil, fmt.Errorf("core: not a chunked instance stream (format %q)", h.Format)
	}
	if h.Version != ChunkedVersion {
		return nil, fmt.Errorf("core: unsupported chunked version %d", h.Version)
	}
	if h.Nodes <= 0 {
		return nil, fmt.Errorf("core: chunked header declares %d nodes", h.Nodes)
	}
	fb := tree.NewBuilder()
	fb.Grow(h.Nodes)
	for fb.Len() < h.Nodes {
		nodes, err := src.chunk()
		if err == io.EOF {
			return nil, fmt.Errorf("core: chunked stream truncated: got %d of %d nodes", fb.Len(), h.Nodes)
		}
		if err != nil {
			return nil, fmt.Errorf("core: chunked stream: %w", err)
		}
		if len(nodes) > h.Nodes-fb.Len() {
			return nil, fmt.Errorf("core: chunked stream: more than the %d nodes the header declares", h.Nodes)
		}
		for _, nd := range nodes {
			if nd.ID != tree.NodeID(fb.Len()) {
				return nil, fmt.Errorf("core: chunked stream: node ID %d out of order (want %d)", nd.ID, fb.Len())
			}
			if _, err := fb.Add(nd.Parent, nd.Dist, nd.Requests, nd.Label); err != nil {
				return nil, err
			}
		}
	}
	if err := src.end(); err != nil {
		return nil, fmt.Errorf("core: chunked stream: %w", err)
	}
	f, err := fb.Build()
	if err != nil {
		return nil, err
	}
	fi := &FlatInstance{Flat: f, W: h.W, DMax: NoDistance}
	if h.DMax != nil {
		fi.DMax = *h.DMax
	}
	if err := fi.Validate(); err != nil {
		return nil, err
	}
	return fi, nil
}

// chunkSource yields the values of a chunked stream to ReadChunked,
// scanned in one pass until the first decline and decoded by dec, the
// reference, from then on.
type chunkSource struct {
	st    *wire.Stream
	dec   *json.Decoder
	nodes []tree.NodeRecord // the scanned chunk's records, reused
}

// scan frames the next value and scans it with fn. It reports false
// once the stream belongs to the reference: from the first value that
// framing or fn declines, that value included.
func (src *chunkSource) scan(fn func(*wire.Scanner)) bool {
	if src.dec == nil {
		if v := src.st.Next(); v != nil {
			s := wire.NewScanner(v)
			if fn(&s); s.End() {
				return true
			}
		}
		src.dec = json.NewDecoder(src.st.Rest())
	}
	return false
}

var headerKeys = []string{"format", "version", "w", "dmax", "nodes"}

// header reads the stream header.
func (src *chunkSource) header() (h chunkedHeader, err error) {
	if src.scan(func(s *wire.Scanner) { h = scanHeader(s) }) {
		return h, nil
	}
	h = chunkedHeader{}
	return h, src.dec.Decode(&h)
}

func scanHeader(s *wire.Scanner) (h chunkedHeader) {
	s.Object()
	var seen uint64
	for i := s.Field(headerKeys, &seen); i >= 0; i = s.Field(headerKeys, &seen) {
		switch i {
		case 0:
			h.Format = s.String()
		case 1:
			h.Version = int(s.Int(math.MinInt, math.MaxInt))
		case 2:
			h.W = s.Int(math.MinInt64, math.MaxInt64)
		case 3:
			d := s.Int(math.MinInt64, math.MaxInt64)
			h.DMax = &d
		case 4:
			h.Nodes = int(s.Int(math.MinInt, math.MaxInt))
		}
	}
	return h
}

var chunkKeys = []string{"nodes"}

// chunk reads the next chunk's node records, which are valid until the
// next call. It returns io.EOF at the end of the stream.
func (src *chunkSource) chunk() ([]tree.NodeRecord, error) {
	if src.scan(func(s *wire.Scanner) {
		src.nodes = src.nodes[:0]
		s.Object()
		var seen uint64
		for s.Field(chunkKeys, &seen) >= 0 {
			src.nodes = tree.ScanNodes(s, src.nodes)
		}
	}) {
		return src.nodes, nil
	}
	// Decode into fresh records: encoding/json decodes into the
	// elements it finds, so a record that omits a field would keep the
	// value of the record decoded there before.
	var ch struct {
		Nodes []tree.NodeRecord `json:"nodes"`
	}
	err := src.dec.Decode(&ch)
	return ch.Nodes, err
}

// end reports an error unless the stream ends after the last chunk.
func (src *chunkSource) end() error {
	if src.dec == nil {
		if src.st.End() {
			return nil
		}
		src.dec = json.NewDecoder(src.st.Rest())
	}
	switch _, err := src.dec.Token(); err {
	case io.EOF:
		return nil
	case nil:
		return errors.New("data after the last node")
	default:
		return err
	}
}
