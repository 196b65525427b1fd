package tree_test

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/tree"
	"replicatree/internal/wire"
)

// decodeBoth decodes raw twice: with the one-pass scanner, which must
// take it, and with encoding/json, the reference.
func decodeBoth(t *testing.T, raw []byte) [2]*tree.Tree {
	t.Helper()
	s := wire.NewScanner(raw)
	scanned := tree.Scan(&s)
	if scanned == nil || !s.End() {
		t.Fatal("the scanner declined canonical JSON")
	}
	defer wire.SetReferenceOnly(wire.SetReferenceOnly(true))
	decoded := new(tree.Tree)
	if err := json.Unmarshal(raw, decoded); err != nil {
		t.Fatal(err)
	}
	return [2]*tree.Tree{scanned, decoded}
}

// checkBackfill holds a tree whose only label is label at node k to
// keeping Len() labels, empty but for k's.
func checkBackfill(t *testing.T, how string, tr *tree.Tree, k int, label string) {
	t.Helper()
	if len(tr.Labels) != tr.Len() {
		t.Fatalf("%s: %d labels on %d nodes", how, len(tr.Labels), tr.Len())
	}
	for j, l := range tr.Labels {
		want := ""
		if j == k {
			want = label
		}
		if l != want {
			t.Fatalf("%s: label %d is %q, want %q", how, j, l, want)
		}
	}
}

// TestLabelsLazy: a tree none of whose nodes has a label keeps no
// labels through every path that builds or copies one, the first label
// fills in empty ones for the nodes before it, and a label-free tree
// reads, names and encodes exactly as its twin with Len() empty labels.
func TestLabelsLazy(t *testing.T) {
	fi, err := gen.RandomFlatInstance(rand.New(rand.NewSource(3)), 600, gen.TreeConfig{}, true)
	if err != nil {
		t.Fatal(err)
	}
	tr := fi.Flat
	n := tr.Len()
	empty := func(how string, got *tree.Tree) {
		t.Helper()
		if len(got.Labels) != 0 {
			t.Fatalf("%s: %d labels on a label-free tree", how, len(got.Labels))
		}
	}
	empty("Builder", tr)

	raw, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	for i, back := range decodeBoth(t, raw) {
		empty([]string{"JSON scan", "encoding/json"}[i], back)
	}
	var stream bytes.Buffer
	if err := core.WriteChunked(&stream, fi, 64); err != nil {
		t.Fatal(err)
	}
	read, err := core.ReadChunked(bytes.NewReader(stream.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	empty("ReadChunked", read.Flat)
	for _, p := range tree.BuildPieces(tr, tree.PartitionPoints(tr, 32)) {
		pt, err := tree.PieceTree(tr, p)
		if err != nil {
			t.Fatal(err)
		}
		empty("PieceTree", pt)
	}
	empty("Clone", tr.Clone())

	// The twin holds the same tree with Len() empty labels.
	twin := tr.Clone()
	twin.Labels = make([]string, n)
	if err := twin.Validate(); err != nil {
		t.Fatalf("twin: %v", err)
	}
	dst := twin.Clone()
	tree.FlattenInto(dst, tr)
	empty("FlattenInto a labelled tree", dst)
	tree.FlattenInto(dst, tr)
	empty("FlattenInto a label-free tree", dst)
	for j := range n {
		id := tree.NodeID(j)
		if tr.Label(id) != twin.Label(id) || tr.Name(id) != twin.Name(id) {
			t.Fatalf("node %d: label %q name %q, twin's %q %q", j, tr.Label(id), tr.Name(id), twin.Label(id), twin.Name(id))
		}
	}
	twinRaw, err := json.Marshal(twin)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, twinRaw) {
		t.Error("JSON of the label-free tree differs from its twin's")
	}
	var twinStream bytes.Buffer
	if err := core.WriteChunked(&twinStream, &core.FlatInstance{Flat: twin, W: fi.W, DMax: fi.DMax}, 64); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stream.Bytes(), twinStream.Bytes()) {
		t.Error("chunked stream of the label-free tree differs from its twin's")
	}

	// A first label at node k fills in k empty labels, through Add, ...
	const k = 37
	var b tree.Builder
	for j := range n {
		label := ""
		if j == k {
			label = "first"
		}
		if _, err := b.Add(tr.Parents[j], tr.EdgeLens[j], tr.Reqs[j], label); err != nil {
			t.Fatal(err)
		}
	}
	built, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	checkBackfill(t, "Add", built, k, "first")

	// ... through AddLeaf, ...
	ed := tree.NewEditor(tr)
	if _, err := ed.AddLeaf(tr.Root(), 1, 2, ""); err != nil {
		t.Fatal(err)
	}
	empty("AddLeaf without a label", ed.Tree())
	leaf, err := ed.AddLeaf(tr.Root(), 1, 2, "leaf")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ed.AddLeaf(tr.Root(), 1, 2, ""); err != nil {
		t.Fatal(err)
	}
	checkBackfill(t, "AddLeaf", ed.Tree(), int(leaf), "leaf")

	// ... and through a JSON record.
	var doc struct {
		Root  tree.NodeID       `json:"root"`
		Nodes []tree.NodeRecord `json:"nodes"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	doc.Nodes[k].Label = "first"
	labelled, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	for i, back := range decodeBoth(t, labelled) {
		checkBackfill(t, []string{"JSON scan", "encoding/json"}[i], back, k, "first")
	}

	// Validate takes 0 or Len() labels and nothing between or above.
	for _, m := range []int{1, n - 1, n + 1} {
		bad := tr.Clone()
		bad.Labels = make([]string, m)
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "node arrays disagree in length") {
			t.Errorf("%d labels on %d nodes: Validate says %v", m, n, err)
		}
	}
}
