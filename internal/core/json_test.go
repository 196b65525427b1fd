package core

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"replicatree/internal/tree"
	"replicatree/internal/wire"
)

// corpusFiles returns the golden corpus instances (testdata/*.json
// minus the manifest).
func corpusFiles(t testing.TB) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, f := range files {
		if filepath.Base(f) != "manifest.json" {
			out = append(out, f)
		}
	}
	if len(out) != 12 {
		t.Fatalf("found %d corpus instances, want 12", len(out))
	}
	return out
}

// referenceInstance decodes data through UnmarshalJSON with every
// scanner declining, which leaves the encoding/json path alone.
func referenceInstance(data []byte) (Instance, error) {
	defer wire.SetReferenceOnly(wire.SetReferenceOnly(true))
	var in Instance
	err := in.UnmarshalJSON(data)
	return in, err
}

// sameInstance reports how two decoded instances differ: in the
// canonical hash (W, dmax, the arena), the root or the labels.
func sameInstance(t testing.TB, got, want *Instance) {
	t.Helper()
	if (got == nil || got.Tree == nil) != (want == nil || want.Tree == nil) {
		t.Fatalf("instance presence: got %v, want %v", got, want)
	}
	if got == nil || got.Tree == nil {
		return
	}
	if got.W != want.W || got.DMax != want.DMax || got.Tree.Root() != want.Tree.Root() {
		t.Fatalf("got W=%d dmax=%d root=%d, want W=%d dmax=%d root=%d",
			got.W, got.DMax, got.Tree.Root(), want.W, want.DMax, want.Tree.Root())
	}
	if g, w := got.CanonicalHash(), want.CanonicalHash(); g != w {
		t.Fatalf("canonical hash %s, want %s", g, w)
	}
	for j := 0; j < want.Tree.Len(); j++ {
		if g, w := got.Tree.Label(tree.NodeID(j)), want.Tree.Label(tree.NodeID(j)); g != w {
			t.Fatalf("node %d label %q, want %q", j, g, w)
		}
	}
}

// TestScanAcceptsCorpus guards the fast path itself: a silent decline
// would fall back to encoding/json and lose the gain without failing
// any other test. Every corpus instance, as checked in and as
// json.Marshal writes it, must scan in one pass to the reference's
// value.
func TestScanAcceptsCorpus(t *testing.T) {
	for _, f := range corpusFiles(t) {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := referenceInstance(raw)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		compact, err := json.Marshal(&ref)
		if err != nil {
			t.Fatal(err)
		}
		for _, data := range [][]byte{raw, compact} {
			s := wire.NewScanner(data)
			in := ScanInstance(&s)
			if !s.End() {
				t.Fatalf("%s: the scanner declined the canonical form", f)
			}
			sameInstance(t, in, &ref)
		}
	}
}

// FuzzInstanceJSON holds the instance codec to its reference: for any
// bytes, UnmarshalJSON must give the error text, or the instance, that
// the encoding/json path alone gives.
func FuzzInstanceJSON(f *testing.F) {
	for _, file := range corpusFiles(f) {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"tree":{"root":0,"nodes":[{"id":0,"parent":-1,"dist":0},{"id":1,"parent":0,"dist":2,"requests":3,"label":"c"}]},"w":4,"dmax":0}`))
	f.Add([]byte(`{"tree":{"root":0,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"dist":1,"requests":1}]},"w":1,"dmax":null}`))
	f.Add([]byte(`{"TREE":{"root":0,"nodes":[{"id":0,"parent":-1},{"id":1,"parent":0,"requests":1}]},"w":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Instance
		gotErr := got.UnmarshalJSON(data)
		want, wantErr := referenceInstance(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("error %v, reference error %v", gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("error %q, reference error %q", gotErr, wantErr)
			}
			return
		}
		sameInstance(t, &got, &want)
	})
}
