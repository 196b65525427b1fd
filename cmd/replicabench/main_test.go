package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// readSpec reads BENCHMARK.json from the repository root.
func readSpec(t *testing.T) *benchSpec {
	t.Helper()
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	return &spec
}

// TestSmokeEmitsBenchmarkMetrics runs every workload for about a second
// (huge-tree at 20k nodes), untraced and traced, and checks that each
// run answers correctly and emits exactly the metrics BENCHMARK.json
// names, each with its unit, so the metric names cannot drift.
func TestSmokeEmitsBenchmarkMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, benchmark default %d", spec.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames)
	}
	dir := t.TempDir()
	for _, w := range workloadNames {
		for trace, want := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			var out, errOut bytes.Buffer
			args := []string{"-workload", w, "-smoke", "-trace", []string{"0", "1"}[trace], "-trace-dir", dir}
			if err := run(args, &out, &errOut); err != nil {
				t.Fatalf("%v: %v\n%s%s", args, err, out.String(), errOut.String())
			}
			res, err := lastResult(out.Bytes())
			if err != nil {
				t.Fatalf("%v: %v", args, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%v: correct=%v attempted=%d failed=%d\n%s", args, res.Correct, res.Attempted, res.Failed, out.String())
			}
			for _, ms := range want {
				got, ok := res.Metrics[ms.Name]
				if !ok {
					t.Errorf("%v: metric %s missing", args, ms.Name)
				} else if got.Unit != ms.Unit {
					t.Errorf("%v: metric %s in %s, BENCHMARK.json says %s", args, ms.Name, got.Unit, ms.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%v: %d metrics emitted, BENCHMARK.json names %d", args, len(res.Metrics), len(want))
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w+".jsonl")); err != nil {
			t.Errorf("%s: trace file: %v", w, err)
		}
	}
}
