package replicatree_test

// A distance bound of 0 (every client served locally) is a valid
// instance whichever codec carries it: the JSON instance and the
// chunked stream apply the same parameter checks, so a dmax = 0
// instance streams, hashes, bounds and certifies the same way on either
// side (internal/decomp's TestZeroDMaxChunkedDecomp decomposes it).

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/solver"
)

func TestZeroDMaxChunkedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 40, MaxArity: 3, MaxDist: 3, MaxReq: 8}, true)
	in.DMax = 0
	if err := in.Validate(); err != nil {
		t.Fatalf("instance rejects dmax = 0: %v", err)
	}

	var buf bytes.Buffer
	fi := &core.FlatInstance{Flat: in.Tree, W: in.W, DMax: in.DMax}
	if err := core.WriteChunked(&buf, fi, 16); err != nil {
		t.Fatalf("WriteChunked: %v", err)
	}
	got, err := core.ReadChunked(&buf)
	if err != nil {
		t.Fatalf("ReadChunked: %v", err)
	}
	if got.W != in.W || got.DMax != 0 {
		t.Fatalf("round trip changed the parameters: W=%d dmax=%d, want W=%d dmax=0", got.W, got.DMax, in.W)
	}
	if h, want := got.CanonicalHash(), in.CanonicalHash(); h != want {
		t.Fatalf("streamed hash %s, hash %s", h, want)
	}
	if lb, want := got.LowerBound(), core.LowerBound(in); lb != want {
		t.Fatalf("streamed lower bound %d, lower bound %d", lb, want)
	}

	ctx := context.Background()
	rep, err := solver.MustLookup(solver.MultipleGreedy).Solve(ctx, solver.Request{Instance: in})
	if err != nil {
		t.Fatal(err)
	}
	c, err := solver.Certify(in, &rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyAgainst(in); err != nil {
		t.Fatalf("certificate against the instance: %v", err)
	}
	if err := c.VerifyAgainst(&core.Instance{Tree: got.Flat, W: got.W, DMax: got.DMax}); err != nil {
		t.Fatalf("certificate against the streamed instance: %v", err)
	}
}
