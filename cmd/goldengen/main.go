// Command goldengen regenerates the golden regression corpus under
// testdata/: one JSON file per gen.Corpus() instance plus
// manifest.json recording, per instance, the combinatorial lower
// bound and the replica count of every registered solver that
// produces a verified solution. Invoked by go:generate (see
// golden_test.go) and by REGEN_GOLDEN=1 (see golden_gen_test.go).
//
// Usage:
//
//	goldengen [-dir testdata] [-check]
//
// With -check, nothing is written; the command exits non-zero if the
// on-disk corpus differs from what it would generate.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/solver"
)

func main() {
	dir := flag.String("dir", "testdata", "output directory")
	check := flag.Bool("check", false, "verify the on-disk corpus instead of writing")
	flag.Parse()
	if err := run(*dir, *check); err != nil {
		fmt.Fprintln(os.Stderr, "goldengen:", err)
		os.Exit(1)
	}
}

func run(dir string, check bool) error {
	files, err := Generate()
	if err != nil {
		return err
	}
	if !check {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(dir, name)
		if check {
			have, err := os.ReadFile(path)
			if err != nil {
				return fmt.Errorf("corpus out of sync: %w", err)
			}
			if !bytes.Equal(have, files[name]) {
				return fmt.Errorf("corpus out of sync: %s differs (rerun goldengen)", path)
			}
			continue
		}
		if err := os.WriteFile(path, files[name], 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	if check {
		// Orphans matter too: a renamed or dropped corpus entry must
		// not leave a stale instance behind for the glob-based tests
		// to keep exercising.
		onDisk, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			return err
		}
		for _, path := range onDisk {
			if _, ok := files[filepath.Base(path)]; !ok {
				return fmt.Errorf("corpus out of sync: %s is not generated anymore (delete it)", path)
			}
		}
	}
	return nil
}

// Generate renders the whole corpus as file name -> contents: every
// gen.Corpus() instance plus manifest.json. The manifest iterates
// solver.Engines(), so a newly registered deterministic engine is
// golden from its first regeneration onward.
func Generate() (map[string][]byte, error) {
	ctx := context.Background()
	files := make(map[string][]byte)
	manifest := make(map[string]map[string]int)
	for _, entry := range gen.Corpus() {
		data, err := json.MarshalIndent(entry.Instance, "", "  ")
		if err != nil {
			return nil, fmt.Errorf("%s: %w", entry.Name, err)
		}
		files[entry.Name] = append(data, '\n')

		rec := map[string]int{"lower-bound": core.LowerBound(entry.Instance)}
		for _, eng := range solver.Engines() {
			rep, err := eng.Solve(ctx, solver.Request{Instance: entry.Instance})
			if err != nil {
				continue // engine does not apply (NoD-gated, infeasible, budget)
			}
			// Verify under the report's policy — the policy the engine
			// claims for this very solution (the portfolio may return a
			// stricter one than its declared capability).
			if err := core.Verify(entry.Instance, rep.Policy, rep.Solution); err != nil {
				return nil, fmt.Errorf("%s: %s produced an infeasible solution: %v", entry.Name, eng.Name(), err)
			}
			rec[eng.Name()] = rep.Solution.NumReplicas()
		}
		manifest[entry.Name] = rec
	}
	data, err := json.MarshalIndent(manifest, "", "  ")
	if err != nil {
		return nil, err
	}
	files["manifest.json"] = append(data, '\n')
	return files, nil
}
