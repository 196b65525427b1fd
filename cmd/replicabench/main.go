// Command replicabench is the placement service's end-to-end and
// per-layer benchmark. It runs five workloads against the real service
// stack (service.New or fleet.New behind a net/http.Server on a
// loopback socket, or the streamed decomposition pipeline for
// huge-tree), checks every sampled answer with an independent oracle,
// and prints each metric by name with its unit. BENCHMARK.json at the
// repository root names the workloads, the metrics, their units and
// their regression bounds; README.md in this directory explains them.
//
// Usage, from the repository root:
//
//	bash cmd/replicabench/run.sh --workload solve-hot --seed 1 --seconds 16 --trace 0
//	bash cmd/replicabench/run.sh                  # all five workloads, one child process each
//	bash cmd/replicabench/run.sh -trace 1         # traced in-process replay: per-layer metrics
//	bash cmd/replicabench/run.sh -o a.json        # ...later, on another commit: -o b.json
//	bash cmd/replicabench/run.sh -compare a.json b.json
//	bash cmd/replicabench/run.sh -smoke           # about a second per workload
//
// With -workload the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1. Without
// it, every workload runs in a child process of its own (so heap, GC
// state and peak RSS never leak between workloads) and the results,
// with the Go version, GOMAXPROCS, nproc and seed, go to -o.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

const (
	// defaultSeconds is the measured time of one run (BENCHMARK.json's
	// run_seconds): two thirds open phase, one third closed phase.
	defaultSeconds = 16
	// smokeSeconds is -smoke's run length.
	smokeSeconds = 1
	// setupReps set-ups run per run; setup_s is their median.
	setupReps = 5
	// sampleEvery: the oracle checks every 16th open-phase response.
	sampleEvery = 16
	// replayOps bounds the traced replay of each HTTP workload, and
	// hugeReplayOps that of huge-tree.
	replayOps     = 1000
	hugeReplayOps = 3
)

// workloadNames lists the workloads in run order.
var workloadNames = []string{"solve-hot", "solve-cold", "fleet-zipf", "session-churn", "huge-tree"}

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	traceDir string
	log      io.Writer // human-readable diagnostics
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is one workload run's outcome, the last line a run prints.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// resultsDoc is the document a run of every workload writes.
type resultsDoc struct {
	Go         string             `json:"go"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	NProc      int                `json:"nproc"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Trace      bool               `json:"trace"`
	Smoke      bool               `json:"smoke"`
	Workloads  map[string]*result `json:"workloads"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "replicabench:", err)
		var regressed errRegressed
		if errors.As(err, &regressed) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("replicabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload in this process (default: every workload, each in a child process)")
	seed := fs.Int64("seed", 1, "seed every input is derived from")
	seconds := fs.Float64("seconds", defaultSeconds, "measured time per run in seconds")
	trace := fs.Int("trace", 0, "1: traced in-process replay reporting the per-layer metrics")
	smoke := fs.Bool("smoke", false, "about a second per workload, huge-tree at 20k nodes")
	traceDir := fs.String("trace-dir", ".bench_build", "directory for trace-<workload>.jsonl")
	out := fs.String("o", ".bench_build/results.json", "results document written by a run of every workload")
	compare := fs.Bool("compare", false, "compare two results documents: replicabench -compare a.json b.json")
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the regression bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two results documents")
		}
		return compareFiles(stdout, *bench, fs.Arg(0), fs.Arg(1))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, smoke: *smoke, traceDir: *traceDir, log: stdout}
	if cfg.smoke {
		cfg.seconds = smokeSeconds
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", cfg.seconds)
	}
	if cfg.workload == "" {
		return runAll(cfg, stdout, stderr, *out)
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", cfg.workload, err)
	}
	printResult(stdout, res)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// runWorkload runs one workload in this process.
func runWorkload(cfg config) (*result, error) {
	if cfg.workload == "huge-tree" {
		if cfg.trace {
			return traceHuge(cfg)
		}
		return runHuge(cfg)
	}
	var w httpWorkload
	switch cfg.workload {
	case "solve-hot":
		w = newKeyed(cfg.seed, 64, 250, false)
	case "fleet-zipf":
		// About an eighth of the ~790 ops/s closed-phase capacity measured
		// when the workload was built. At half, the open phase ran into
		// its own queue whenever the host slowed, and p90 varied 17-fold
		// between runs; at a quarter, p50 still spread 10% over ten seeds,
		// against 4% here.
		w = newKeyed(cfg.seed, 512, 100, true)
	case "solve-cold":
		w = &coldWorkload{seed: cfg.seed, oracle: newSolveOracle()}
	case "session-churn":
		w = newChurn(cfg.seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
	}
	if cfg.trace {
		return traceHTTP(cfg, w)
	}
	return runHTTP(cfg, w)
}

func printResult(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %16.6f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}

// runAll runs every workload in a child process of its own and writes
// the results document.
func runAll(cfg config, stdout, stderr io.Writer, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	doc := resultsDoc{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		Smoke:      cfg.smoke,
		Workloads:  make(map[string]*result),
	}
	fmt.Fprintf(stdout, "replicabench: %s, GOMAXPROCS=%d, nproc=%d, seed=%d\n", doc.Go, doc.GOMAXPROCS, doc.NProc, doc.Seed)
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	failed := false
	for _, name := range workloadNames {
		fmt.Fprintf(stdout, "== %s\n", name)
		args := []string{"-workload", name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds),
			"-trace", trace, "-trace-dir", cfg.traceDir}
		if cfg.smoke {
			args = append(args, "-smoke")
		}
		var buf bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		res, err := lastResult(buf.Bytes())
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		doc.Workloads[name] = res
		failed = failed || !res.Correct || res.Failed > 0
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "results written to", out)
	if failed {
		return errors.New("a workload failed operations or answered incorrectly")
	}
	return nil
}

// lastResult parses the JSON result from a run's last output line.
func lastResult(out []byte) (*result, error) {
	out = bytes.TrimSpace(out)
	last := out[bytes.LastIndexByte(out, '\n')+1:]
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("result line %q: %w", last, err)
	}
	return &res, nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sortedKeys(m map[int][]byte) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
