package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestCompareMarksRegressions(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := write("bench.json", map[string]any{"end_to_end": []metricSpec{
		{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "capacity_ops", Unit: "ops/s", Better: "higher", Bound: 0.1},
	}})
	doc := func(p50, capacity float64) resultsDoc {
		return resultsDoc{Workloads: map[string]*result{"solve-hot": {Metrics: metricSet{
			"p50_ms":       {Value: p50, Unit: "ms"},
			"capacity_ops": {Value: capacity, Unit: "ops/s"},
		}}}}
	}
	a := write("a.json", doc(1.0, 800))
	within := write("within.json", doc(1.05, 760)) // +5% latency, −5% capacity
	beyond := write("beyond.json", doc(0.80, 700)) // faster, but −12.5% capacity

	var out bytes.Buffer
	if err := compareFiles(&out, spec, a, within); err != nil {
		t.Fatalf("within bounds: %v\n%s", err, out.String())
	}
	out.Reset()
	err := compareFiles(&out, spec, a, beyond)
	var regressed errRegressed
	if !errors.As(err, &regressed) || regressed != 1 {
		t.Fatalf("beyond bound: err %v, want one marked metric\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "capacity_ops") || strings.Count(out.String(), "BEYOND BOUND") != 1 {
		t.Errorf("output does not mark capacity_ops alone:\n%s", out.String())
	}
}
