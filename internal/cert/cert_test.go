package cert_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"replicatree/internal/cert"
	"replicatree/internal/core"
	"replicatree/internal/solver"
)

// The test package imports internal/solver to produce real solve
// outcomes — allowed here because the no-solver-import rule applies to
// the cert package and the replicaverify binary, and test files are
// outside `go list -deps` of both.

func goldenInstance(t testing.TB, name string) *core.Instance {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	var in core.Instance
	if err := json.Unmarshal(data, &in); err != nil {
		t.Fatal(err)
	}
	return &in
}

// solvedCert solves the instance with the named engine and certifies
// the outcome — the same Report→Certificate mapping the service uses.
func solvedCert(t testing.TB, in *core.Instance, engine string) *cert.Certificate {
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

// TestCertificateRoundTrip: every corpus instance × a spread of
// engines produces a certificate that verifies offline — against the
// instance and against its chunked-stream round trip — and survives a
// JSON round trip (the wire form) unchanged.
func TestCertificateRoundTrip(t *testing.T) {
	instances := []string{
		"binary_nod_1.json", "binary_dist_1.json", "gadget_fig4.json",
		"caterpillar_nod.json", "wide_nod.json",
	}
	engines := []string{solver.Auto, solver.MultipleGreedy, solver.ExactMultiple, solver.SingleGen}
	for _, name := range instances {
		in := goldenInstance(t, name)
		for _, engine := range engines {
			t.Run(name+"/"+engine, func(t *testing.T) {
				c := solvedCert(t, in, engine)
				if err := c.VerifyAgainst(in); err != nil {
					t.Fatalf("fresh certificate rejected: %v", err)
				}
				var stream bytes.Buffer
				if err := core.WriteChunked(&stream, &core.FlatInstance{Flat: in.Tree, W: in.W, DMax: in.DMax}, 0); err != nil {
					t.Fatal(err)
				}
				fi, err := core.ReadChunked(&stream)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.VerifyAgainst(&core.Instance{Tree: fi.Flat, W: fi.W, DMax: fi.DMax}); err != nil {
					t.Fatalf("verification against the streamed instance rejected: %v", err)
				}

				wire, err := json.Marshal(c)
				if err != nil {
					t.Fatal(err)
				}
				var back cert.Certificate
				if err := json.Unmarshal(wire, &back); err != nil {
					t.Fatal(err)
				}
				if err := back.VerifyAgainst(in); err != nil {
					t.Fatalf("certificate rejected after JSON round trip: %v", err)
				}
				h1, err := c.HashHex()
				if err != nil {
					t.Fatal(err)
				}
				h2, err := back.HashHex()
				if err != nil {
					t.Fatal(err)
				}
				if h1 != h2 {
					t.Fatalf("leaf hash changed across the wire: %s vs %s", h1, h2)
				}
			})
		}
	}
}

// TestCertifyOptimality: exact engines proving optimality yield an
// optimality attestation; heuristics do not. When the bound is met,
// the verifier needs no attestation at all — replicas == bound is
// self-evident optimality.
func TestCertifyOptimality(t *testing.T) {
	in := goldenInstance(t, "binary_nod_1.json")
	exact := solvedCert(t, in, solver.ExactMultiple)
	if exact.Optimality == nil {
		t.Fatal("exact engine produced no optimality attestation")
	}
	if exact.Optimality.Engine != solver.ExactMultiple {
		t.Fatalf("attestation names %q, want %q", exact.Optimality.Engine, solver.ExactMultiple)
	}
	heuristic := solvedCert(t, in, solver.MultipleGreedy)
	if heuristic.Optimality != nil {
		t.Fatal("heuristic engine claimed an optimality attestation")
	}
}

// TestCertifyRecomputesSuppressedBound: Request.NoBound zeroes
// the report's bound; the issued certificate must still carry the true
// recomputed bound so it survives its own verification.
func TestCertifyRecomputesSuppressedBound(t *testing.T) {
	in := goldenInstance(t, "binary_nod_1.json")
	eng, err := solver.Lookup(solver.MultipleGreedy)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Solve(context.Background(), solver.Request{
		Instance: in,
		NoBound:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LowerBound != 0 {
		t.Skip("NoBound did not suppress the bound; nothing to recompute")
	}
	c, err := solver.Certify(in, &rep)
	if err != nil {
		t.Fatal(err)
	}
	if c.Bound.Value != core.LowerBound(in) {
		t.Fatalf("certificate bound %d, want recomputed %d", c.Bound.Value, core.LowerBound(in))
	}
	if err := c.VerifyAgainst(in); err != nil {
		t.Fatalf("certificate with recomputed bound rejected: %v", err)
	}
}

// TestCertBatchInclusion: a batch of per-instance certificates commits
// to one Merkle root and each certificate's inclusion proof verifies —
// the whole-job flow the service exposes, exercised library-side.
func TestCertBatchInclusion(t *testing.T) {
	names := []string{
		"binary_nod_1.json", "binary_nod_2.json", "binary_dist_1.json",
		"binary_dist_2.json", "gadget_fig4.json", "gadget_i2.json", "wide_nod.json",
	}
	certs := make([]*cert.Certificate, len(names))
	leaves := make([][32]byte, len(names))
	for i, name := range names {
		certs[i] = solvedCert(t, goldenInstance(t, name), solver.Auto)
		leaf, err := certs[i].Hash()
		if err != nil {
			t.Fatal(err)
		}
		leaves[i] = leaf
	}
	mt, err := cert.NewTree(leaves)
	if err != nil {
		t.Fatal(err)
	}
	root := mt.RootHex()
	for i := range certs {
		p, err := mt.Proof(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := certs[i].VerifyInclusionOf(root, p); err != nil {
			t.Fatalf("leaf %d: inclusion rejected: %v", i, err)
		}
		// The same proof must not vouch for a different certificate.
		if err := certs[(i+1)%len(certs)].VerifyInclusionOf(root, p); err == nil {
			t.Fatalf("leaf %d: proof accepted for the wrong certificate", i)
		}
	}
}
