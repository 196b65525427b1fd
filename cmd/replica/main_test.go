package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/solver"
	"replicatree/internal/tree"
)

func instanceJSON(t *testing.T) string {
	t.Helper()
	b := tree.NewBuilder()
	root := b.Root("root")
	a := b.Internal(root, 1, "a")
	b.Client(a, 1, 5, "c1")
	b.Client(a, 1, 7, "c2")
	b.Client(root, 1, 2, "c3")
	in := &core.Instance{Tree: b.MustBuild(), W: 12, DMax: core.NoDistance}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestRunEveryRegisteredSolver drives the CLI through the whole
// registry: on a small NoD instance, every registered solver must
// produce a verified placement.
func TestRunEveryRegisteredSolver(t *testing.T) {
	for _, name := range solver.List() {
		var out bytes.Buffer
		err := run([]string{"-solver", name}, strings.NewReader(instanceJSON(t)), &out)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(out.String(), "replicas:") {
			t.Errorf("%s: missing replica summary:\n%s", name, out.String())
		}
	}
}

func TestRunSolverList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-solver", "list"}, nil, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(solver.List()) {
		t.Fatalf("list printed %d lines for %d solvers:\n%s", len(lines), len(solver.List()), out.String())
	}
	for _, name := range solver.List() {
		if !strings.Contains(out.String(), name) {
			t.Errorf("list output missing %s", name)
		}
	}
	if !strings.Contains(out.String(), "exact") || !strings.Contains(out.String(), "Multiple") {
		t.Errorf("list output missing metadata columns:\n%s", out.String())
	}
}

func TestRunJSONAndDotFormats(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-solver", "single-gen", "-format", "json"},
		strings.NewReader(instanceJSON(t)), &out); err != nil {
		t.Fatal(err)
	}
	var sol core.Solution
	if err := json.Unmarshal(out.Bytes(), &sol); err != nil {
		t.Fatalf("output is not a solution: %v", err)
	}
	if sol.NumReplicas() == 0 {
		t.Fatal("empty solution")
	}
	out.Reset()
	if err := run([]string{"-solver", "single-gen", "-format", "dot"},
		strings.NewReader(instanceJSON(t)), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "digraph") {
		t.Fatal("dot output missing digraph")
	}
}

func TestRunPushUp(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-solver", "single-nod", "-pushup"},
		strings.NewReader(instanceJSON(t)), &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-solver", "multiple-bin", "-pushup"},
		strings.NewReader(instanceJSON(t)), &out); err == nil {
		t.Fatal("pushup on Multiple should fail")
	}
}

func TestRunLatency(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-solver", "multiple-best", "-latency"},
		strings.NewReader(instanceJSON(t)), &out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-solver", "single-gen", "-latency"},
		strings.NewReader(instanceJSON(t)), &out); err == nil {
		t.Fatal("latency on Single should fail")
	}
}

func TestRunBudget(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-solver", "exact-multiple", "-budget", "1"},
		strings.NewReader(instanceJSON(t)), &out); err == nil {
		t.Fatal("a starvation budget should exhaust the exact solver")
	}
	out.Reset()
	if err := run([]string{"-solver", "exact-multiple", "-budget", "1000000"},
		strings.NewReader(instanceJSON(t)), &out); err != nil {
		t.Fatal(err)
	}
}

func TestRunFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "inst.json")
	if err := os.WriteFile(path, []byte(instanceJSON(t)), 0o600); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-solver", "multiple-bin", "-in", path}, nil, &out); err != nil {
		t.Fatal(err)
	}
}

// chunkedStream renders a small instance in the chunked wire format.
func chunkedStream(t *testing.T) []byte {
	t.Helper()
	var in core.Instance
	if err := json.Unmarshal([]byte(instanceJSON(t)), &in); err != nil {
		t.Fatal(err)
	}
	fi := &core.FlatInstance{Flat: in.Tree, W: in.W, DMax: in.DMax}
	var buf bytes.Buffer
	if err := core.WriteChunked(&buf, fi, 2); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunStreamDecomp: the huge-tree path — chunked input, flat
// solve, summary output with the gap.
func TestRunStreamDecomp(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-solver", "decomp", "-stream"}, bytes.NewReader(chunkedStream(t)), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "gap") {
		t.Fatalf("decomp stream summary missing the gap:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-solver", "decomp", "-stream", "-format", "json"},
		bytes.NewReader(chunkedStream(t)), &out); err != nil {
		t.Fatal(err)
	}
	var sum map[string]any
	if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
		t.Fatalf("json summary does not parse: %v", err)
	}
	for _, key := range []string{"replicas", "lower_bound", "gap", "pieces"} {
		if _, ok := sum[key]; !ok {
			t.Errorf("json summary missing %q", key)
		}
	}
	// Post-passes print per-node output; the decomp stream path must
	// refuse them.
	if err := run([]string{"-solver", "decomp", "-stream", "-latency"},
		bytes.NewReader(chunkedStream(t)), &out); err == nil {
		t.Error("-latency accepted on the decomp stream path")
	}
}

// TestRunStreamMaterializes: any other solver solves the same stream
// like a JSON instance.
func TestRunStreamMaterializes(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-solver", "multiple-bin", "-stream"}, bytes.NewReader(chunkedStream(t)), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "replicas:") {
		t.Fatalf("missing replica summary:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-solver", "nope"}, strings.NewReader(instanceJSON(t)), &out); err == nil {
		t.Error("unknown solver should fail")
	} else if !strings.Contains(err.Error(), "single-gen") {
		t.Errorf("unknown-solver error should list the registry: %v", err)
	}
	if err := run([]string{"-format", "nope"}, strings.NewReader(instanceJSON(t)), &out); err == nil {
		t.Error("unknown format should fail")
	}
	if err := run(nil, strings.NewReader("{bad json"), &out); err == nil {
		t.Error("bad JSON should fail")
	}
	if err := run([]string{"-in", "/does/not/exist"}, nil, &out); err == nil {
		t.Error("missing file should fail")
	}
}
