package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/bits"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"replicatree/internal/cert"
	"replicatree/internal/core"
	"replicatree/internal/solver"
)

// The test file imports internal/solver to mint real certificates;
// that is fine — test files are outside `go list -deps`, so the
// binary's no-solver dependency guarantee (pinned by
// TestNoSolverInDependencyClosure and the CI depguard) holds.

func corpusInstance(t testing.TB, name string) (*core.Instance, string) {
	t.Helper()
	path := filepath.Join("..", "..", "testdata", name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var in core.Instance
	if err := json.Unmarshal(data, &in); err != nil {
		t.Fatal(err)
	}
	return &in, path
}

func mintCert(t testing.TB, in *core.Instance, engine string) *cert.Certificate {
	t.Helper()
	eng, err := solver.Lookup(engine)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Solve(context.Background(), solver.Request{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	c, err := solver.Certify(in, &rep)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func writeJSON(t testing.TB, dir, name string, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestVerifyGoldenCorpus: every corpus instance's certificate passes
// the offline checker end to end, file in, verdict out.
func TestVerifyGoldenCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	verified := 0
	for _, instPath := range files {
		name := filepath.Base(instPath)
		if name == "manifest.json" {
			continue
		}
		in, _ := corpusInstance(t, name)
		c := mintCert(t, in, "auto")
		certPath := writeJSON(t, dir, name+".cert", c)
		var out bytes.Buffer
		if err := run([]string{"-cert", certPath, "-instance", instPath}, &out, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.HasPrefix(out.String(), "OK:") {
			t.Fatalf("%s: unexpected output %q", name, out.String())
		}
		verified++
	}
	if verified == 0 {
		t.Fatal("no corpus instances verified")
	}
}

// TestVerifyStdinQuiet: the curl-pipe path — certificate on stdin,
// -q suppresses the summary.
func TestVerifyStdinQuiet(t *testing.T) {
	in, instPath := corpusInstance(t, "gadget_fig4.json")
	data, err := json.Marshal(mintCert(t, in, "exact-multiple"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-q", "-instance", instPath}, &out, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 0 {
		t.Fatalf("-q printed %q", out.String())
	}
}

// TestVerifyStream: verification against the chunked wire format —
// the huge-tree path, read one chunk at a time.
func TestVerifyStream(t *testing.T) {
	in, _ := corpusInstance(t, "binary_dist_2.json")
	dir := t.TempDir()
	fi := &core.FlatInstance{Flat: in.Tree, W: in.W, DMax: in.DMax}
	streamPath := filepath.Join(dir, "instance.chunked")
	f, err := os.Create(streamPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.WriteChunked(f, fi, 16); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	certPath := writeJSON(t, dir, "cert.json", mintCert(t, in, "auto"))
	var out bytes.Buffer
	if err := run([]string{"-cert", certPath, "-stream", streamPath}, &out, nil); err != nil {
		t.Fatal(err)
	}
}

// TestVerify10kBatchInclusion: a 10 000-task batch's inclusion proof
// verifies offline through the CLI, and the proof is exactly
// ⌈log₂ 10000⌉ = 14 hashes. The batch is built directly with the cert
// library: one real certificate among 9 999 sibling certificates that
// differ only in their attested work counters — the shape of a job
// whose tasks are near-identical probes.
func TestVerify10kBatchInclusion(t *testing.T) {
	const batch, target = 10_000, 7_321
	in, instPath := corpusInstance(t, "binary_nod_1.json")
	real := mintCert(t, in, "exact-multiple")

	leaves := make([][32]byte, batch)
	sibling := *real
	for i := range leaves {
		if i == target {
			h, err := real.Hash()
			if err != nil {
				t.Fatal(err)
			}
			leaves[i] = h
			continue
		}
		sibling.Work = int64(1_000_000 + i)
		h, err := sibling.Hash()
		if err != nil {
			t.Fatal(err)
		}
		leaves[i] = h
	}
	mt, err := cert.NewTree(leaves)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := mt.Proof(target)
	if err != nil {
		t.Fatal(err)
	}
	if want := bits.Len(uint(batch - 1)); len(proof.Siblings) != want {
		t.Fatalf("proof is %d hashes, want ⌈log₂ %d⌉ = %d", len(proof.Siblings), batch, want)
	}

	doc := map[string]any{
		"certificate_root": mt.RootHex(),
		"certificate":      real,
		"proof":            proof,
	}
	docPath := writeJSON(t, t.TempDir(), "proof.json", doc)
	var out bytes.Buffer
	if err := run([]string{"-cert", docPath, "-instance", instPath}, &out, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "leaf 7321 of 10000") {
		t.Fatalf("summary does not report the inclusion check: %q", out.String())
	}
	if !strings.Contains(out.String(), "(14 hashes)") {
		t.Fatalf("summary does not report the proof size: %q", out.String())
	}
}

// TestVerifyDetectsTampering: each forgery exits through the
// verification-failure class (status 2) with its precise sentinel.
func TestVerifyDetectsTampering(t *testing.T) {
	in, instPath := corpusInstance(t, "gadget_fig4.json")
	_, otherPath := corpusInstance(t, "wide_nod.json")
	base := mintCert(t, in, "exact-multiple")
	// A four-leaf batch: the real certificate plus three work-count
	// variants, so the inclusion path has siblings to forge.
	v1, v2, v3 := *base, *base, *base
	v1.Work, v2.Work, v3.Work = base.Work+1, base.Work+2, base.Work+3
	mt, err := cert.NewTree(mustLeaves(t, base, &v1, &v2, &v3))
	if err != nil {
		t.Fatal(err)
	}
	proof, err := mt.Proof(0)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		args func(dir string) []string
		want error
	}{
		{"inflated-replica-count", func(dir string) []string {
			c := *base
			c.Replicas++
			return []string{"-cert", writeJSON(t, dir, "c.json", &c), "-instance", instPath}
		}, cert.ErrMalformed},
		{"wrong-instance", func(dir string) []string {
			return []string{"-cert", writeJSON(t, dir, "c.json", base), "-instance", otherPath}
		}, cert.ErrInstanceHash},
		{"under-served-client", func(dir string) []string {
			c := *base
			w := *base.Witness
			w.Assignments = w.Assignments[:len(w.Assignments)-1]
			c.Witness = &w
			return []string{"-cert", writeJSON(t, dir, "c.json", &c), "-instance", instPath}
		}, cert.ErrWitness},
		{"forged-proof-sibling", func(dir string) []string {
			p := *proof
			p.Siblings = append([]string(nil), p.Siblings...)
			p.Siblings[0] = strings.Repeat("ab", 32)
			doc := map[string]any{"certificate_root": mt.RootHex(), "certificate": base, "proof": &p}
			return []string{"-cert", writeJSON(t, dir, "c.json", doc), "-instance", instPath}
		}, cert.ErrProof},
		{"wrong-root", func(dir string) []string {
			doc := map[string]any{"certificate_root": strings.Repeat("cd", 32), "certificate": base, "proof": proof}
			return []string{"-cert", writeJSON(t, dir, "c.json", doc), "-instance", instPath}
		}, cert.ErrProof},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args(t.TempDir()), &out, nil)
			if err == nil {
				t.Fatal("forgery accepted")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("error %v does not wrap %v", err, tc.want)
			}
			if !isVerificationFailure(err) {
				t.Fatalf("error %v would exit with status 1, want the verification class (2)", err)
			}
		})
	}
}

func mustLeaves(t testing.TB, certs ...*cert.Certificate) [][32]byte {
	t.Helper()
	leaves := make([][32]byte, len(certs))
	for i, c := range certs {
		h, err := c.Hash()
		if err != nil {
			t.Fatal(err)
		}
		leaves[i] = h
	}
	return leaves
}

// TestUsageErrorsAreNotVerificationFailures: bad invocations and
// unreadable inputs exit 1, never masquerading as a tamper verdict.
func TestUsageErrorsAreNotVerificationFailures(t *testing.T) {
	in, instPath := corpusInstance(t, "gadget_fig4.json")
	certPath := writeJSON(t, t.TempDir(), "c.json", mintCert(t, in, "auto"))
	for _, args := range [][]string{
		{},                                      // neither -instance nor -stream
		{"-instance", instPath, "-stream", "x"}, // both
		{"-cert", "/no/such/file", "-instance", instPath},
		{"-cert", certPath, "-instance", instPath, "-root", strings.Repeat("ab", 32)}, // root without proof
	} {
		err := run(args, &bytes.Buffer{}, strings.NewReader("{}"))
		if err == nil {
			t.Fatalf("args %v: expected an error", args)
		}
		if isVerificationFailure(err) {
			t.Fatalf("args %v: usage error %v classified as a verification failure", args, err)
		}
	}
}

// TestNoSolverInDependencyClosure pins the binary's core guarantee:
// an auditor running replicaverify is not trusting any solver code.
func TestNoSolverInDependencyClosure(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	out, err := exec.Command(goBin, "list", "-deps", "replicatree/cmd/replicaverify").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	if strings.Contains(string(out), "internal/solver") {
		t.Fatal("replicaverify's dependency closure includes internal/solver")
	}
	for _, want := range []string{"replicatree/internal/cert", "replicatree/internal/core"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("dependency closure is missing %s:\n%s", want, out)
		}
	}
}
