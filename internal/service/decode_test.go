package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"replicatree/internal/solver"
	"replicatree/internal/tree"
	"replicatree/internal/wire"
)

// referenceSolveRequest decodes body with every scanner declining,
// which leaves the json.Decoder path alone.
func referenceSolveRequest(body []byte) (SolveRequestV2, error) {
	defer wire.SetReferenceOnly(wire.SetReferenceOnly(true))
	return DecodeSolveRequest(body)
}

// sameSolveRequest fails unless two decodes agree: on the error text,
// or on every request field and the instance's canonical hash, root,
// labels, W and dmax.
func sameSolveRequest(t testing.TB, got SolveRequestV2, gotErr error, want SolveRequestV2, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("error %v, reference error %v", gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("error %q, reference error %q", gotErr, wantErr)
		}
		return
	}
	gi, wi := got.Instance, want.Instance
	got.Instance, want.Instance = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("request %+v, reference %+v", got, want)
	}
	if (gi == nil) != (wi == nil) {
		t.Fatalf("instance %v, reference %v", gi, wi)
	}
	if gi == nil {
		return
	}
	if gi.W != wi.W || gi.DMax != wi.DMax || gi.Tree.Root() != wi.Tree.Root() ||
		gi.CanonicalHash() != wi.CanonicalHash() {
		t.Fatalf("instance W=%d dmax=%d root=%d hash=%s, reference W=%d dmax=%d root=%d hash=%s",
			gi.W, gi.DMax, gi.Tree.Root(), gi.CanonicalHash(), wi.W, wi.DMax, wi.Tree.Root(), wi.CanonicalHash())
	}
	for j := 0; j < wi.Tree.Len(); j++ {
		if g, w := gi.Tree.Label(tree.NodeID(j)), wi.Tree.Label(tree.NodeID(j)); g != w {
			t.Fatalf("node %d label %q, reference %q", j, g, w)
		}
	}
}

// corpusSolveBodies renders a solve body around every golden corpus
// instance, bare and with each optional field set.
func corpusSolveBodies(t testing.TB) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for _, f := range files {
		if filepath.Base(f) == "manifest.json" {
			continue
		}
		in := goldenInstance(t, filepath.Base(f))
		for _, req := range []SolveRequestV2{
			{Solver: solver.SingleGen, Instance: in},
			{Solver: "auto", Instance: in, Policy: "single"},
			{Solver: solver.MultipleBest, Instance: in, Budget: 5000},
			{Solver: solver.LPRound, Instance: in, TimeoutMS: 250},
			{Solver: "auto", Instance: in},
			{Solver: solver.SingleGen, Instance: in, Certificate: true},
			{Solver: "auto", Instance: in, Policy: "multiple", Budget: 1, TimeoutMS: 9, Certificate: true},
		} {
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, body)
		}
	}
	return bodies
}

// TestScanAcceptsSolveBodies guards the fast path itself: a silent
// decline would fall back to encoding/json and lose the gain without
// failing any other test.
func TestScanAcceptsSolveBodies(t *testing.T) {
	for _, body := range corpusSolveBodies(t) {
		got, ok := scanSolveRequest(body)
		if !ok {
			t.Fatalf("the scanner declined a marshalled body:\n%.300s", body)
		}
		want, wantErr := referenceSolveRequest(body)
		sameSolveRequest(t, got, nil, want, wantErr)
	}
}

// TestSolveBodyDeclines takes one body per class of input the scanner
// declines; each must decline and still decode to the reference's
// result.
func TestSolveBodyDeclines(t *testing.T) {
	const (
		nodes = `"nodes":[{"id":0,"parent":-1,"dist":0},{"id":1,"parent":0,"dist":1,"requests":1}]`
		inst  = `{"tree":{"root":0,` + nodes + `},"w":2,"dmax":3}`
	)
	cases := map[string]string{
		"escaped string":        `{"solver":"single\u002dgen","instance":` + inst + `}`,
		"escaped label":         `{"solver":"single-gen","instance":{"tree":{"root":0,"nodes":[{"id":0,"parent":-1,"dist":0,"label":"a\"b"},{"id":1,"parent":0,"dist":1,"requests":1}]},"w":2}}`,
		"non-ASCII label":       `{"solver":"single-gen","instance":{"tree":{"root":0,"nodes":[{"id":0,"parent":-1,"dist":0,"label":"née"},{"id":1,"parent":0,"dist":1,"requests":1}]},"w":2}}`,
		"control byte":          "{\"solver\":\"single-gen\t\",\"instance\":" + inst + "}",
		"unknown key":           `{"solver":"single-gen","explain":true,"instance":` + inst + `}`,
		"unknown instance key":  `{"solver":"single-gen","instance":{"tree":{"root":0,` + nodes + `},"w":2,"hetero":1}}`,
		"duplicate key":         `{"solver":"single-gen","solver":"multiple-best","instance":` + inst + `}`,
		"duplicate node key":    `{"solver":"single-gen","instance":{"tree":{"root":0,"nodes":[{"id":0,"parent":-1,"dist":0,"dist":5},{"id":1,"parent":0,"dist":1,"requests":1}]},"w":2}}`,
		"duplicate hint":        `{"solver":"single-gen","hints":{"a":"1","a":"2"},"instance":` + inst + `}`,
		"differently-cased key": `{"Solver":"single-gen","instance":` + inst + `}`,
		"cased instance key":    `{"solver":"single-gen","instance":{"tree":{"root":0,` + nodes + `},"W":2}}`,
		"null dmax":             `{"solver":"single-gen","instance":{"tree":{"root":0,` + nodes + `},"w":2,"dmax":null}}`,
		"null instance":         `{"solver":"single-gen","instance":null}`,
		"null hints":            `{"solver":"single-gen","hints":null,"instance":` + inst + `}`,
		"float":                 `{"solver":"single-gen","instance":{"tree":{"root":0,` + nodes + `},"w":2.0}}`,
		"exponent":              `{"solver":"single-gen","budget":1e3,"instance":` + inst + `}`,
		"leading zero":          `{"solver":"single-gen","budget":07,"instance":` + inst + `}`,
		"int64 overflow":        `{"solver":"single-gen","timeout_ms":9223372036854775808,"instance":` + inst + `}`,
		"node id overflow":      `{"solver":"single-gen","instance":{"tree":{"root":0,"nodes":[{"id":0,"parent":-1,"dist":0},{"id":4294967297,"parent":0,"dist":1,"requests":1}]},"w":2}}`,
		"trailing value":        `{"solver":"single-gen","instance":` + inst + `} {"solver":"x"}`,
		"trailing garbage":      `{"solver":"single-gen","instance":` + inst + `}]`,
		"invalid tree":          `{"solver":"single-gen","instance":{"tree":{"root":0,"nodes":[{"id":0,"parent":-1,"dist":0}]},"w":2}}`,
		"bad node id":           `{"solver":"single-gen","instance":{"tree":{"root":0,"nodes":[{"id":0,"parent":-1,"dist":0},{"id":9,"parent":0,"dist":1,"requests":1}]},"w":2}}`,
		"invalid capacity":      `{"solver":"single-gen","instance":{"tree":{"root":0,` + nodes + `},"w":0}}`,
		"string for int":        `{"solver":"single-gen","budget":"5","instance":` + inst + `}`,
		"truncated":             `{"solver":"single-gen","instance":{"tree":{"root":0,"nodes":[{"id":0`,
	}
	for name, body := range cases {
		if _, ok := scanSolveRequest([]byte(body)); ok {
			t.Errorf("%s: the scanner accepted %s", name, body)
			continue
		}
		got, gotErr := DecodeSolveRequest([]byte(body))
		want, wantErr := referenceSolveRequest([]byte(body))
		sameSolveRequest(t, got, gotErr, want, wantErr)
	}
}

// FuzzSolveBody holds DecodeSolveRequest to its reference: for any
// body, the same error text or the same request.
func FuzzSolveBody(f *testing.F) {
	for _, body := range corpusSolveBodies(f) {
		f.Add(body)
	}
	f.Add([]byte(`{"solver":"single-gen","hints":{"k":"v"},"instance":{"tree":{"root":0,"nodes":[{"id":0,"parent":-1,"dist":0},{"id":1,"parent":0,"dist":1,"requests":1}]},"w":2}} trailing`))
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gotErr := DecodeSolveRequest(body)
		want, wantErr := referenceSolveRequest(body)
		sameSolveRequest(t, got, gotErr, want, wantErr)
	})
}

// failingBody yields data, then fails every read with err.
type failingBody struct {
	data string
	err  error
}

func (b *failingBody) Read(p []byte) (int, error) {
	if b.data == "" {
		return 0, b.err
	}
	n := copy(p, b.data)
	b.data = b.data[n:]
	return n, nil
}

// TestSolveBodyReadError: when reading the body fails, the decode
// succeeds or fails exactly where a json.Decoder streaming the body
// would have: a complete first value still solves, and the failure
// classes keep their status and text.
func TestSolveBodyReadError(t *testing.T) {
	srv := New(Options{})
	defer srv.Close()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "binary_nod_1.json"))
	if err != nil {
		t.Fatal(err)
	}
	complete := `{"solver":"single-gen","instance":` + string(data) + `}`
	cases := []struct {
		name, data string
		err        error
		status     int
		detail     string
	}{
		{"value before the error", complete, errors.New("connection reset"), http.StatusOK, ""},
		{"cap hit mid-value", complete[:40], &http.MaxBytesError{Limit: 40}, http.StatusRequestEntityTooLarge, "request body exceeds 40 bytes"},
		{"read fails mid-value", complete[:40], errors.New("connection reset"), http.StatusBadRequest, "invalid request: connection reset"},
	}
	for _, c := range cases {
		req := httptest.NewRequest(http.MethodPost, "/v2/solve", io.NopCloser(&failingBody{c.data, c.err}))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != c.status {
			t.Fatalf("%s: status %d, want %d\n%s", c.name, rec.Code, c.status, rec.Body)
		}
		if c.detail == "" {
			continue
		}
		var p Problem
		if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
			t.Fatal(err)
		}
		if p.Detail != c.detail {
			t.Errorf("%s: detail %q, want %q", c.name, p.Detail, c.detail)
		}
	}
}
