package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"replicatree/internal/core"
)

func TestGenerateAllKinds(t *testing.T) {
	cases := [][]string{
		{"-kind", "random", "-internals", "6", "-seed", "3"},
		{"-kind", "random", "-distance"},
		{"-kind", "binary", "-internals", "8"},
		{"-kind", "caterpillar", "-internals", "5"},
		{"-kind", "i2", "-m", "2", "-b", "16"},
		{"-kind", "i4", "-m", "3"},
		{"-kind", "im", "-m", "2", "-delta", "3"},
		{"-kind", "fig4", "-k", "5"},
		{"-kind", "i6", "-m", "3"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		var in core.Instance
		if err := json.Unmarshal(out.Bytes(), &in); err != nil {
			t.Fatalf("%v: output not a valid instance: %v", args, err)
		}
		if err := in.Validate(); err != nil {
			t.Fatalf("%v: invalid instance: %v", args, err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := run([]string{"-kind", "random", "-seed", "9"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-kind", "random", "-seed", "9"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("same seed must generate identical output")
	}
}

// TestGenerateFlatNodes: the -nodes path must be deterministic per
// seed, parse back through the chunked reader with -stream, and land
// near the requested node budget.
func TestGenerateFlatNodes(t *testing.T) {
	var a, b bytes.Buffer
	args := []string{"-nodes", "5000", "-stream", "-seed", "42"}
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("same seed must generate an identical stream")
	}
	fi, err := core.ReadChunked(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatalf("stream does not parse back: %v", err)
	}
	if n := fi.Flat.Len(); n < 4000 || n > 5000 {
		t.Fatalf("generated %d nodes for a budget of 5000", n)
	}
	// Without -stream the same generator emits classic instance JSON.
	var c bytes.Buffer
	if err := run([]string{"-nodes", "200", "-seed", "42"}, &c); err != nil {
		t.Fatal(err)
	}
	var in core.Instance
	if err := json.Unmarshal(c.Bytes(), &in); err != nil {
		t.Fatalf("-nodes without -stream is not instance JSON: %v", err)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestGenerateLegacyKindStream: -stream also works for the classic
// kinds, writing the generated tree in the chunked format.
func TestGenerateLegacyKindStream(t *testing.T) {
	var plain, streamed bytes.Buffer
	if err := run([]string{"-kind", "binary", "-internals", "8", "-seed", "5"}, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-kind", "binary", "-internals", "8", "-seed", "5", "-stream"}, &streamed); err != nil {
		t.Fatal(err)
	}
	var in core.Instance
	if err := json.Unmarshal(plain.Bytes(), &in); err != nil {
		t.Fatal(err)
	}
	fi, err := core.ReadChunked(bytes.NewReader(streamed.Bytes()))
	if err != nil {
		t.Fatalf("streamed legacy kind does not parse: %v", err)
	}
	if fi.CanonicalHash() != in.CanonicalHash() {
		t.Fatal("streamed instance differs from the plain JSON instance")
	}
}

func TestGenerateErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-kind", "nope"}, &out); err == nil {
		t.Error("unknown kind should fail")
	}
	if err := run([]string{"-kind", "im", "-delta", "1"}, &out); err == nil {
		t.Error("Δ=1 should fail")
	}
}
