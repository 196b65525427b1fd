package core

// This file implements the chunked instance representation: a
// streaming wire format, so a million-node tree is ingested
// piece-by-piece off an io.Reader instead of one json.Unmarshal of a
// full-tree blob. Besides the tree's arrays, the read side holds a
// window of raw bytes at most about twice a chunk's length and a ring
// of at most 4 copied chunks and their node records, which scanner
// goroutines read on up to 4 cores; there is never a second full-tree
// copy (raw JSON) resident. The arrays grow by append as records
// arrive, though, so a grow briefly holds an old and a new array, and
// the grows allocate about 5× the final arrays in all. cmd/treegen
// emits the format with -stream, cmd/replica consumes it with -stream,
// and the decomp engine solves the resulting FlatInstance.
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
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"

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

// Validate is Instance.Validate of the instance.
func (fi *FlatInstance) Validate() error {
	return validate(fi.Flat, fi.W, fi.DMax)
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
			Label:    f.Label(tree.NodeID(j)),
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
// instance. Decoding is incremental: one window over r, at most 4
// framed chunks and their node records are resident at a time, the
// records feeding a tree.Builder, whose arrays grow by append (about
// 1.25× a grow at this size; a 250k-node read with no labels
// allocates about 39 MB in all). Canonical values are framed on the
// calling goroutine and scanned in one pass (package wire), chunks on
// min(GOMAXPROCS, 4) goroutines that end before ReadChunked returns;
// the records join the tree in stream order. From the first value that
// does not scan, encoding/json, the reference, decodes the rest of the
// stream, that value included, so every error is the reference's. The
// header's node count is a claim, not a size: the builder reserves at
// most one chunk's worth for it. The chunks must carry exactly that
// many nodes, and only whitespace may follow the last of them.
func ReadChunked(r io.Reader) (*FlatInstance, error) {
	src := chunkSource{st: wire.NewStream(r)}
	defer src.stop()
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

// ringSlots is the number of chunks a chunkSource holds framed at once:
// the caller frames up to this many ahead of the chunk it takes, and up
// to this many scanner goroutines read them.
const ringSlots = 4

// chunkSource yields the values of a chunked stream to ReadChunked. The
// header is framed and scanned on the calling goroutine. Chunks are
// framed there too, st having no other user, and each frame is copied
// into a slot of a ring that scanner goroutines read; the caller takes
// the slots' records in stream order. From the first value that
// framing or a scan declines, dec, the reference, decodes the rest of
// the stream, that value included.
type chunkSource struct {
	st  *wire.Stream
	dec *json.Decoder
	// ring holds the framed chunks head, ..., tail-1 (counted from the
	// first chunk) at ring[i%ringSlots]; the chunk before head is the
	// one the caller took last. stopped reports that framing has
	// declined or met the end of the stream, so that st.Rest starts
	// after slot tail-1 and does not replay its frame.
	ring       [ringSlots]ringSlot
	head, tail int
	stopped    bool
	work       chan *ringSlot // to the scanners; nil while none run
	scanners   sync.WaitGroup
}

// ringSlot is one framed chunk: a copy of its frame and, once done is
// closed, the records its scan found and whether the scan read the
// frame to its end.
type ringSlot struct {
	frame []byte
	nodes []tree.NodeRecord
	ok    bool
	done  chan struct{}
}

var chunkKeys = []string{"nodes"}

// scan reads the slot's frame as a chunk.
func (sl *ringSlot) scan() {
	s := wire.NewScanner(sl.frame)
	sl.nodes = sl.nodes[:0]
	s.Object()
	var seen uint64
	for s.Field(chunkKeys, &seen) >= 0 {
		sl.nodes = tree.ScanNodes(&s, sl.nodes)
	}
	sl.ok = s.End()
}

func (src *chunkSource) slot(i int) *ringSlot { return &src.ring[i%ringSlots] }

var headerKeys = []string{"format", "version", "w", "dmax", "nodes"}

// header reads the stream header.
func (src *chunkSource) header() (h chunkedHeader, err error) {
	if v := src.st.Next(); v != nil {
		s := wire.NewScanner(v)
		if h = scanHeader(&s); s.End() {
			return h, nil
		}
	}
	src.dec = json.NewDecoder(src.st.Rest())
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

// chunk reads the next chunk's node records, which are valid until the
// next call. It returns io.EOF at the end of the stream.
func (src *chunkSource) chunk() ([]tree.NodeRecord, error) {
	if src.dec == nil {
		src.frame()
		if src.head < src.tail {
			sl := src.slot(src.head)
			if <-sl.done; sl.ok {
				src.head++
				return sl.nodes, nil
			}
		}
		src.handOff()
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

// frame frames chunks into the free slots, the slot of the chunk the
// caller took last among them, and hands them to the scanners, which
// it starts on first use, until the ring is full or framing stops.
func (src *chunkSource) frame() {
	for !src.stopped && src.tail-src.head < ringSlots {
		v := src.st.Next()
		if v == nil {
			src.stopped = true
			return
		}
		if src.work == nil {
			// One buffered send per slot: at most ringSlots are in
			// flight, so frame never blocks on a busy scanner.
			work := make(chan *ringSlot, ringSlots)
			for range min(runtime.GOMAXPROCS(0), ringSlots) {
				src.scanners.Add(1)
				go func() {
					defer src.scanners.Done()
					for sl := range work {
						sl.scan()
						close(sl.done)
					}
				}()
			}
			src.work = work
		}
		sl := src.slot(src.tail)
		sl.frame = append(sl.frame[:0], v...)
		sl.done = make(chan struct{})
		src.tail++
		src.work <- sl
	}
}

// stop waits for the scans in flight and then for the scanners to
// exit. The ring's frames stay readable.
func (src *chunkSource) stop() {
	if src.work == nil {
		return
	}
	for i := src.head; i < src.tail; i++ {
		<-src.slot(i).done
	}
	close(src.work)
	src.work = nil
	src.scanners.Wait()
}

// handOff hands the rest of the stream to the reference, from slot
// head on: the framed copies st.Rest will not replay, then st.Rest.
func (src *chunkSource) handOff() {
	src.stop()
	last := src.tail
	if !src.stopped {
		last-- // st.Rest starts at the frame Next returned last
	}
	rs := make([]io.Reader, 0, last-src.head+1)
	for i := src.head; i < last; i++ {
		rs = append(rs, bytes.NewReader(src.slot(i).frame))
	}
	src.dec = json.NewDecoder(io.MultiReader(append(rs, src.st.Rest())...))
}

// end reports an error unless the stream ends after the last chunk.
func (src *chunkSource) end() error {
	if src.dec == nil {
		src.stop()
		if src.head < src.tail {
			// A chunk framed past the header's count: the reference's
			// next token would be its opening brace.
			return errors.New("data after the last node")
		}
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
