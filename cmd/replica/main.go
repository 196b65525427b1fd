// Command replica solves a replica placement instance read from a
// JSON file (or stdin) and prints the resulting placement. Algorithms
// are dispatched through the solver registry: any registered engine
// can be selected by name, including the "auto" portfolio that runs
// the capable engines in stages, cheapest first, until one meets the
// lower bound, and returns the best placement.
//
// Usage:
//
//	replica -solver list
//	replica -solver single-gen  -in instance.json
//	replica -solver auto -in instance.json
//	replica -solver multiple-bin -in instance.json -format json
//	treegen -kind binary -internals 10 | replica -solver exact-multiple
//
// See README.md for the solver catalogue; -solver list prints the
// registered set with capabilities.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"replicatree/internal/core"
	// Link the decomposition engine into the registry: it lives in its
	// own package (it imports solver) and registers itself on init.
	"replicatree/internal/decomp"
	"replicatree/internal/multiple"
	"replicatree/internal/single"
	"replicatree/internal/solver"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "replica:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("replica", flag.ContinueOnError)
	name := fs.String("solver", "", "solver name from the registry, or 'list' to print the registered set")
	inPath := fs.String("in", "-", "instance JSON file ('-' for stdin)")
	format := fs.String("format", "text", "output format: text|json|dot")
	pushup := fs.Bool("pushup", false, "apply the push-up post-pass (Single policy only)")
	latency := fs.Bool("latency", false, "re-route assignments for minimal total distance (Multiple policy only)")
	budget := fs.Int64("budget", 0, "work budget for exact solvers (0 = default)")
	stream := fs.Bool("stream", false, "read the chunked streaming format (treegen -stream); with -solver decomp the tree is solved by decomposition and a summary is printed")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the solve to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (after the solve) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		// Written on every exit path so a failed solve still leaves a
		// usable profile of what it allocated.
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "replica: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so live objects dominate the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "replica: memprofile:", err)
			}
		}()
	}
	if *name == "" {
		*name = solver.SingleGen
	}
	if *name == "list" {
		for _, c := range solver.Catalog() {
			kind := "heuristic"
			if c.Exact {
				kind = "exact"
			}
			fmt.Fprintf(stdout, "%-16s %-8s %s\n", c.Name, c.Policy, kind)
		}
		return nil
	}
	eng, err := solver.Lookup(*name)
	if err != nil {
		return err
	}

	var in core.Instance
	if *stream {
		r := stdin
		if *inPath != "-" {
			f, err := os.Open(*inPath)
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
		}
		fi, err := core.ReadChunked(r)
		if err != nil {
			return err
		}
		if *name == solver.Decomp {
			// The huge-tree path: no per-node output, a summary with
			// the gap.
			if *pushup || *latency || *format == "dot" {
				return fmt.Errorf("-pushup/-latency/dot are unavailable on the decomp stream path")
			}
			return runFlat(stdout, fi, *format)
		}
		in = core.Instance{Tree: fi.Flat, W: fi.W, DMax: fi.DMax}
	} else {
		var data []byte
		if *inPath == "-" {
			data, err = io.ReadAll(stdin)
		} else {
			data, err = os.ReadFile(*inPath)
		}
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &in); err != nil {
			return err
		}
	}

	rep, err := eng.Solve(context.Background(), solver.Request{Instance: &in, Budget: *budget})
	if err != nil {
		return err
	}
	sol, pol := rep.Solution, rep.Policy
	if *pushup {
		if pol != core.Single {
			return fmt.Errorf("-pushup applies to Single-policy solvers only")
		}
		sol = single.PushUp(&in, sol)
	}
	if *latency {
		if pol != core.Multiple {
			return fmt.Errorf("-latency applies to Multiple-policy solvers only")
		}
		sol, err = multiple.MinimizeLatency(&in, sol)
		if err != nil {
			return err
		}
	}
	if err := core.Verify(&in, pol, sol); err != nil {
		return fmt.Errorf("solution failed verification: %w", err)
	}

	switch *format {
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(sol)
	case "dot":
		fmt.Fprint(stdout, in.Tree.DOT(sol.ReplicaSet()))
		return nil
	case "text":
		printText(stdout, &in, pol, sol)
		return nil
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
}

// runFlat solves a streamed instance through the decomposition pipeline
// and prints the run summary (the full placement of a million-node
// tree is not useful terminal output; use -format json for the
// machine-readable summary). The solution is verified against the
// instance before anything is printed, like the standard path.
func runFlat(stdout io.Writer, fi *core.FlatInstance, format string) error {
	res, err := decomp.SolveFlat(context.Background(), fi, decomp.Options{Verify: true})
	if err != nil {
		return err
	}
	switch format {
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{
			"nodes":       fi.Flat.Len(),
			"clients":     fi.Flat.NumClients(),
			"w":           fi.W,
			"nod":         fi.NoD(),
			"pieces":      res.Pieces,
			"merged":      res.Merged,
			"rounds":      res.Rounds,
			"moved":       res.Moved,
			"workers":     res.Workers,
			"replicas":    res.Replicas,
			"lower_bound": res.LowerBound,
			"gap":         res.Gap,
			"elapsed_ms":  res.Elapsed.Milliseconds(),
		})
	case "text":
		dmax := "∞"
		if !fi.NoD() {
			dmax = fmt.Sprint(fi.DMax)
		}
		fmt.Fprintf(stdout, "instance: %d nodes (%d clients) W=%d dmax=%s policy=%s\n",
			fi.Flat.Len(), fi.Flat.NumClients(), fi.W, dmax, core.Multiple)
		fmt.Fprintf(stdout, "decomp: %d pieces (%d merged), %d rounds moved %d, %d workers, %v\n",
			res.Pieces, res.Merged, res.Rounds, res.Moved, res.Workers, res.Elapsed)
		fmt.Fprintf(stdout, "replicas: %d (lower bound %d, gap %.4f)\n",
			res.Replicas, res.LowerBound, res.Gap)
		return nil
	default:
		return fmt.Errorf("unknown format %q", format)
	}
}

func printText(w io.Writer, in *core.Instance, pol core.Policy, sol *core.Solution) {
	dmax := "∞"
	if !in.NoD() {
		dmax = fmt.Sprint(in.DMax)
	}
	fmt.Fprintf(w, "instance: %s W=%d dmax=%s policy=%s\n", in.Tree, in.W, dmax, pol)
	fmt.Fprintf(w, "replicas: %d (lower bound %d)\n", sol.NumReplicas(), core.LowerBound(in))
	loads := sol.Loads()
	for _, r := range sol.Replicas {
		fmt.Fprintf(w, "  %-8s load %d/%d\n", in.Tree.Name(r), loads[r], in.W)
	}
	fmt.Fprintln(w, "assignments:")
	for _, a := range sol.Assignments {
		fmt.Fprintf(w, "  %-8s -> %-8s  %d requests (distance %d)\n",
			in.Tree.Name(a.Client), in.Tree.Name(a.Server), a.Amount,
			in.Tree.DistanceUp(a.Client, a.Server))
	}
}
