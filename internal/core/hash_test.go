package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"replicatree/internal/tree"
)

func TestCanonicalHashDeterministic(t *testing.T) {
	a := inst(t, 9, 5)
	b := inst(t, 9, 5)
	ha, hb := a.CanonicalHash(), b.CanonicalHash()
	if ha != hb {
		t.Fatalf("identical instances hash differently: %s vs %s", ha, hb)
	}
	if len(ha) != 64 {
		t.Fatalf("hash is not hex SHA-256: %q", ha)
	}
	if ha != a.CanonicalHash() {
		t.Fatal("hash not stable across calls")
	}
}

func TestCanonicalHashSensitivity(t *testing.T) {
	base := inst(t, 9, 5)
	h0 := base.CanonicalHash()

	variants := map[string]*Instance{
		"capacity": inst(t, 10, 5),
		"dmax":     inst(t, 9, 6),
		"nod":      inst(t, 9, NoDistance),
	}
	// Structural variants: change one request rate, one edge length.
	req := tree.NewBuilder()
	r := req.Root("root")
	a := req.Internal(r, 1, "a")
	bb := req.Internal(r, 2, "b")
	req.Client(a, 3, 6, "c1") // r=6 instead of 5
	req.Client(a, 1, 7, "c2")
	req.Client(bb, 4, 2, "c3")
	variants["requests"] = &Instance{Tree: req.MustBuild(), W: 9, DMax: 5}

	dist := tree.NewBuilder()
	r = dist.Root("root")
	a = dist.Internal(r, 1, "a")
	bb = dist.Internal(r, 2, "b")
	dist.Client(a, 2, 5, "c1") // dist=2 instead of 3
	dist.Client(a, 1, 7, "c2")
	dist.Client(bb, 4, 2, "c3")
	variants["distance"] = &Instance{Tree: dist.MustBuild(), W: 9, DMax: 5}

	for name, v := range variants {
		if h := v.CanonicalHash(); h == h0 {
			t.Errorf("%s variant collides with base hash %s", name, h)
		}
	}
}

func TestCanonicalHashIgnoresLabels(t *testing.T) {
	b := tree.NewBuilder()
	r := b.Root("renamed-root")
	a := b.Internal(r, 1, "x")
	bb := b.Internal(r, 2, "y")
	b.Client(a, 3, 5, "")
	b.Client(a, 1, 7, "z")
	b.Client(bb, 4, 2, "w")
	relabeled := &Instance{Tree: b.MustBuild(), W: 9, DMax: 5}
	if got, want := relabeled.CanonicalHash(), inst(t, 9, 5).CanonicalHash(); got != want {
		t.Fatalf("labels leaked into the hash: %s vs %s", got, want)
	}
}

func TestCanonicalHashSurvivesJSONRoundTrip(t *testing.T) {
	for _, dmax := range []int64{5, NoDistance} {
		in := inst(t, 9, dmax)
		data, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		var back Instance
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if got, want := back.CanonicalHash(), in.CanonicalHash(); got != want {
			t.Fatalf("dmax=%d: round-trip changed hash: %s vs %s", dmax, got, want)
		}
	}
}

// TestFlatCanonicalHashMatchesPointer: an instance streamed through
// the chunked codec hashes like the instance it was written from —
// certificates commit to one hash whichever codec carried the
// instance.
func TestFlatCanonicalHashMatchesPointer(t *testing.T) {
	for _, dmax := range []int64{5, NoDistance} {
		in := inst(t, 9, dmax)
		var buf bytes.Buffer
		if err := WriteChunked(&buf, &FlatInstance{Flat: in.Tree, W: in.W, DMax: in.DMax}, 2); err != nil {
			t.Fatal(err)
		}
		fi, err := ReadChunked(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fi.CanonicalHash(), in.CanonicalHash(); got != want {
			t.Errorf("dmax=%d: streamed hash %s != hash %s", dmax, got, want)
		}
	}
}

// TestCanonicalHashIgnoresRootDist: the root has no parent edge, so
// the "dist" its JSON record carries is written back by MarshalJSON but
// never hashed — directly, as a FlatInstance, or after the chunked
// codec, which writes the root's dist as 0.
func TestCanonicalHashIgnoresRootDist(t *testing.T) {
	const body = `{"tree":{"root":0,"nodes":[{"id":0,"parent":-1,"dist":%d},` +
		`{"id":1,"parent":0,"dist":2},{"id":2,"parent":1,"dist":1,"requests":3},{"id":3,"parent":0,"dist":4,"requests":5}]},"w":6,"dmax":5}`
	var hashes []string
	for _, dist := range []int{0, 7} {
		var in Instance
		data := fmt.Sprintf(body, dist)
		if err := json.Unmarshal([]byte(data), &in); err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(in.Tree)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf(`{"id":0,"parent":-1,"dist":%d}`, dist); !strings.Contains(string(out), want) {
			t.Errorf("MarshalJSON dropped the root's dist %d: %s", dist, out)
		}
		fi := &FlatInstance{Flat: in.Tree, W: in.W, DMax: in.DMax}
		var buf bytes.Buffer
		if err := WriteChunked(&buf, fi, 0); err != nil {
			t.Fatal(err)
		}
		streamed, err := ReadChunked(&buf)
		if err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, in.CanonicalHash(), fi.CanonicalHash(), streamed.CanonicalHash())
	}
	for i, h := range hashes {
		if h != hashes[0] {
			t.Fatalf("hash %d of [dist 0: direct, flat, streamed; dist 7: direct, flat, streamed] is %s, want %s",
				i, h, hashes[0])
		}
	}
}

func TestCanonicalHashNilTree(t *testing.T) {
	a := &Instance{W: 1, DMax: NoDistance}
	b := &Instance{W: 2, DMax: NoDistance}
	if a.CanonicalHash() == b.CanonicalHash() {
		t.Fatal("nil-tree instances with different W collide")
	}
	// Must not panic, must be stable.
	if a.CanonicalHash() != a.CanonicalHash() {
		t.Fatal("nil-tree hash unstable")
	}
}

// TestCanonicalHashBlocks pins the hash of heap-shaped trees whose
// serialisations end just before, exactly at and well past a block
// boundary of the hash's write buffer: the header takes 40 bytes and
// each node 24, so 169 nodes fill 4,096 bytes exactly.
func TestCanonicalHashBlocks(t *testing.T) {
	for _, tc := range []struct {
		nodes int
		want  string
	}{
		{168, "96e9030861f514addb6e08d49c0d5674d67fb6e3f12891dff5d7d6bf1d9441bf"},
		{169, "18bb83ca1b0a8dec5009ea170e8c4150959ca43f3ff96a061b4580ade0c897dc"},
		{170, "b0f53b4e92fe132eaaf5f42cff3d1044e9b8f052cd79ca22d3882a954c777b99"},
		{1000, "e2cecdac644f88fea476a4bc9916973dfcc24b26175fa537ce8d616889dd4724"},
	} {
		b := tree.NewBuilder()
		for i := 0; i < tc.nodes; i++ {
			parent, reqs := tree.NodeID((i-1)/2), int64(0)
			if i == 0 {
				parent = tree.None
			}
			if 2*i+1 >= tc.nodes {
				reqs = int64(i%5 + 1)
			}
			if _, err := b.Add(parent, int64(i%7+1), reqs, ""); err != nil {
				t.Fatal(err)
			}
		}
		f, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if got := (&Instance{Tree: f, W: 9, DMax: 11}).CanonicalHash(); got != tc.want {
			t.Errorf("%d nodes: hash %s, want %s", tc.nodes, got, tc.want)
		}
	}
}
