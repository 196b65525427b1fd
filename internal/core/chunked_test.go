package core_test

// Tests for the chunked streaming codec and the FlatInstance bound
// and verify calls, pinned against the reference implementations.

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/wire"
)

func chunkedCorpus(t *testing.T) map[string]*core.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	out := map[string]*core.Instance{
		"random-nod":  gen.RandomInstance(rng, gen.TreeConfig{Internals: 25, MaxArity: 3, ExtraClients: 15}, false),
		"random-dist": gen.RandomInstance(rng, gen.TreeConfig{Internals: 25, MaxArity: 3, ExtraClients: 15}, true),
		"binary-dist": gen.RandomInstance(rng, gen.TreeConfig{Internals: 30, MaxArity: 2, ExtraClients: 10}, true),
	}
	return out
}

func TestChunkedRoundTrip(t *testing.T) {
	for name, in := range chunkedCorpus(t) {
		fi := &core.FlatInstance{Flat: in.Tree, W: in.W, DMax: in.DMax}
		for _, chunk := range []int{0, 1, 7, 1 << 16} {
			var buf bytes.Buffer
			if err := core.WriteChunked(&buf, fi, chunk); err != nil {
				t.Fatalf("%s chunk %d: write: %v", name, chunk, err)
			}
			got, err := core.ReadChunked(&buf)
			if err != nil {
				t.Fatalf("%s chunk %d: read: %v", name, chunk, err)
			}
			if got.W != fi.W || got.DMax != fi.DMax {
				t.Fatalf("%s chunk %d: parameters drifted: got W=%d dmax=%d", name, chunk, got.W, got.DMax)
			}
			if !reflect.DeepEqual(got.Flat, in.Tree) {
				t.Fatalf("%s chunk %d: the tree changed through the chunked codec", name, chunk)
			}
			if got.CanonicalHash() != in.CanonicalHash() {
				t.Fatalf("%s chunk %d: canonical hash drifted through the chunked codec", name, chunk)
			}
		}
	}
}

func TestChunkedHeaderRejects(t *testing.T) {
	cases := map[string]string{
		"wrong format":  `{"format":"something-else","version":1,"w":5,"nodes":3}`,
		"wrong version": `{"format":"replicatree-chunked","version":9,"w":5,"nodes":3}`,
		"no nodes":      `{"format":"replicatree-chunked","version":1,"w":5,"nodes":0}`,
		"bad w":         `{"format":"replicatree-chunked","version":1,"w":0,"nodes":3}` + "\n" + `{"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"requests":1},{"id":2,"parent":0,"requests":1}]}`,
		"truncated":     `{"format":"replicatree-chunked","version":1,"w":5,"nodes":4}` + "\n" + `{"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"requests":1}]}`,
		"out of order":  `{"format":"replicatree-chunked","version":1,"w":5,"nodes":3}` + "\n" + `{"nodes":[{"id":0,"parent":-1},{"id":2,"parent":0,"requests":1},{"id":1,"parent":0,"requests":1}]}`,
	}
	for name, in := range cases {
		if _, err := core.ReadChunked(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestChunkedNodeCountMustMatch: the chunks carry exactly the nodes
// the header declares, and nothing but whitespace follows the last
// one, on the one-pass path and on the reference alike.
func TestChunkedNodeCountMustMatch(t *testing.T) {
	header := func(nodes string) string {
		return `{"format":"replicatree-chunked","version":1,"w":5,"nodes":` + nodes + "}\n"
	}
	const (
		two     = `{"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"requests":1}]}`
		three   = `{"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"requests":1},{"id":2,"parent":0,"requests":1}]}`
		twoMore = `{"nodes":[{"id":2,"parent":0,"requests":1},{"id":3,"parent":0,"requests":1}]}`
	)
	cases := map[string]string{
		"more nodes than declared":        header("2") + three,
		"more nodes in a later chunk":     header("3") + two + twoMore,
		"a chunk after the last node":     header("3") + three + "\n" + `{"nodes":[]}`,
		"garbage after the last node":     header("3") + three + " x",
		"a bracket after the last node":   header("3") + three + "]",
		"a number after the last node":    header("3") + three + "\n7\n",
		"an escaped value after the last": header("3") + three + `"\u0041"`,
	}
	for name, in := range cases {
		for _, ref := range []bool{false, true} {
			prev := wire.SetReferenceOnly(ref)
			_, err := core.ReadChunked(strings.NewReader(in))
			wire.SetReferenceOnly(prev)
			if err == nil || !strings.HasPrefix(err.Error(), "core: chunked stream: ") {
				t.Errorf("%s (reference only %v): got %v, want a chunked stream error", name, ref, err)
			}
		}
	}
	if _, err := core.ReadChunked(strings.NewReader(header("3") + three + " \n\t\r\n")); err != nil {
		t.Errorf("trailing whitespace: %v", err)
	}
}

// TestChunkedHugeHeaderIsTruncated: the header's node count is a
// claim. A 72-byte header that claims four trillion nodes must come
// back as a truncated stream, not reserve memory for the claim.
func TestChunkedHugeHeaderIsTruncated(t *testing.T) {
	const header = `{"format":"replicatree-chunked","version":1,"w":9,"nodes":4000000000000}`
	for _, stream := range []string{
		header,
		header + "\n" + `{"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"requests":1}]}`,
	} {
		_, err := core.ReadChunked(strings.NewReader(stream))
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("got %v, want a truncated stream", err)
		}
	}
}

func TestWriteChunkedRejectsNonTopologicalIDs(t *testing.T) {
	// A tree whose root is not ID 0 is valid as a Tree but cannot be
	// streamed (the reader rebuilds parents-first).
	blob := `{"tree":{"root":1,"nodes":[{"id":0,"parent":1,"dist":2,"requests":3},{"id":1,"parent":-1,"dist":0}]},"w":5}`
	var in core.Instance
	if err := in.UnmarshalJSON([]byte(blob)); err != nil {
		t.Fatalf("fixture does not parse: %v", err)
	}
	fi := &core.FlatInstance{Flat: in.Tree, W: in.W, DMax: in.DMax}
	var buf bytes.Buffer
	if err := core.WriteChunked(&buf, fi, 0); err == nil {
		t.Fatal("non-topological flat accepted")
	}
}

// TestFlatInstanceBoundAndVerify pins the FlatInstance lower bound
// and verifier against the reference implementations on solved
// instances.
func TestFlatInstanceBoundAndVerify(t *testing.T) {
	for name, in := range chunkedCorpus(t) {
		fi := &core.FlatInstance{Flat: in.Tree, W: in.W, DMax: in.DMax}
		if got, want := fi.LowerBound(), referenceLowerBound(in); got != want {
			t.Fatalf("%s: flat lower bound %d, reference %d", name, got, want)
		}
		// An everywhere-replica solution is always feasible: each
		// client serves itself (W >= max requests by construction).
		sol := &core.Solution{}
		for _, c := range in.Tree.Clients() {
			sol.AddReplica(c)
			sol.Assign(c, c, in.Tree.Requests(c))
		}
		sol.Normalize()
		if err := fi.Verify(core.Multiple, sol); err != nil {
			t.Fatalf("%s: flat verify rejected a feasible solution: %v", name, err)
		}
		if err := referenceVerify(in, core.Multiple, sol); err != nil {
			t.Fatalf("%s: reference verify rejected the same solution: %v", name, err)
		}
		// Corrupt it: overload one server beyond W.
		bad := sol.Clone()
		bad.Assignments[0].Amount += in.W
		if fi.Verify(core.Multiple, bad) == nil || referenceVerify(in, core.Multiple, bad) == nil {
			t.Fatalf("%s: verify accepted an overloaded server", name)
		}
	}
}

// TestChunkedRecordsStartFromZero: a record that omits a field, as
// WriteChunked does for a zero one, must read as zero, not as the
// field of the record at the same position in the previous chunk.
func TestChunkedRecordsStartFromZero(t *testing.T) {
	const stream = `{"format":"replicatree-chunked","version":1,"w":5,"nodes":4}
{"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"dist":3,"requests":4,"label":"a"}]}
{"nodes":[{"id":2,"parent":0,"dist":1,"requests":2},{"id":3,"parent":0}]}`
	fi, err := core.ReadChunked(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if f := fi.Flat; f.EdgeLens[3] != 0 || f.Reqs[3] != 0 || f.Label(3) != "" {
		t.Fatalf("node 3 read as dist %d, requests %d, label %q; want all zero", f.EdgeLens[3], f.Reqs[3], f.Label(3))
	}
}

// BenchmarkReadChunked streams a 50,000-node instance in 4,096-node
// chunks through ReadChunked, on the one-pass path and on the
// encoding/json reference alone.
func BenchmarkReadChunked(b *testing.B) {
	fi, err := gen.RandomFlatInstance(rand.New(rand.NewSource(1)), 50_000, gen.TreeConfig{}, false)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := core.WriteChunked(&buf, fi, 4096); err != nil {
		b.Fatal(err)
	}
	stream := buf.Bytes()
	for _, ref := range []bool{false, true} {
		name := "scanner"
		if ref {
			name = "reference"
		}
		b.Run(name, func(b *testing.B) {
			defer wire.SetReferenceOnly(wire.SetReferenceOnly(ref))
			b.SetBytes(int64(len(stream)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.ReadChunked(bytes.NewReader(stream)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
