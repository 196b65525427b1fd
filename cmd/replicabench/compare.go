package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// errRegressed reports marked comparisons; main exits 1 on it.
type errRegressed int

func (e errRegressed) Error() string { return fmt.Sprintf("%d metric(s) beyond their bound", int(e)) }

// compareFiles prints, for every workload and end-to-end metric, the
// relative difference of b against a, and marks each one that got
// worse by more than the metric's bound.
func compareFiles(w io.Writer, benchPath, aPath, bPath string) error {
	var spec benchSpec
	var a, b resultsDoc
	for _, f := range []struct {
		path string
		v    any
	}{{benchPath, &spec}, {aPath, &a}, {bPath, &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "a: %s GOMAXPROCS=%d nproc=%d seed=%d\nb: %s GOMAXPROCS=%d nproc=%d seed=%d\n",
		a.Go, a.GOMAXPROCS, a.NProc, a.Seed, b.Go, b.GOMAXPROCS, b.NProc, b.Seed)
	names := make([]string, 0, len(a.Workloads))
	for n := range a.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	marked := 0
	for _, wl := range names {
		for _, ms := range spec.EndToEnd {
			line, worse := compareMetric(ms, a.Workloads[wl], b.Workloads[wl])
			mark := ""
			if worse {
				mark = "  BEYOND BOUND"
				marked++
			}
			fmt.Fprintf(w, "%-14s %-14s %s%s\n", wl, ms.Name, line, mark)
		}
	}
	if marked > 0 {
		return errRegressed(marked)
	}
	return nil
}

// compareMetric formats one comparison and reports whether b is worse
// than a by more than the bound; a metric missing on either side
// counts as worse.
func compareMetric(ms metricSpec, a, b *result) (string, bool) {
	if a == nil || b == nil {
		return "missing workload", true
	}
	va, okA := a.Metrics[ms.Name]
	vb, okB := b.Metrics[ms.Name]
	if !okA || !okB {
		return "missing metric", true
	}
	if va.Value == 0 {
		return fmt.Sprintf("%14.6g → %-14.6g %s (base is 0)", va.Value, vb.Value, ms.Unit), vb.Value != 0
	}
	rel := (vb.Value - va.Value) / va.Value
	worse := rel > ms.Bound
	if ms.Better == "higher" {
		worse = rel < -ms.Bound
	}
	return fmt.Sprintf("%14.6g → %-14.6g %-6s %+7.2f%% (bound %.0f%%, %s is better)",
		va.Value, vb.Value, ms.Unit, 100*rel, 100*ms.Bound, ms.Better), worse
}
