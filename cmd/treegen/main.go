// Command treegen generates replica placement instances as JSON, for
// piping into the replica solver or archiving as workloads.
//
// Usage:
//
//	treegen -kind random -internals 10 -arity 3 -seed 7
//	treegen -kind binary -internals 12
//	treegen -kind im -m 4 -delta 3          # Fig. 3 tight family
//	treegen -kind fig4 -k 8                 # Fig. 4 tight family
//	treegen -kind i2 -m 2 -b 16 -seed 1     # 3-Partition gadget (YES instance)
//	treegen -kind i6 -m 3 -seed 1           # 2-Partition-Equal gadget
//
// Huge trees: -nodes generates a random instance of ~that many total
// nodes in one streaming pass, and -stream emits
// the chunked wire format (core.WriteChunked) that cmd/replica
// ingests with -stream — a million-node instance never exists as one
// JSON blob on either side:
//
//	treegen -nodes 1000000 -stream -seed 42 | replica -solver decomp -stream
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"replicatree/internal/core"
	"replicatree/internal/gen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "treegen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("treegen", flag.ContinueOnError)
	kind := fs.String("kind", "random", "random|binary|caterpillar|i2|i4|im|fig4|i6")
	seed := fs.Int64("seed", 1, "random seed")
	internals := fs.Int("internals", 8, "internal node count (random kinds)")
	arity := fs.Int("arity", 3, "max arity (random kind)")
	maxDist := fs.Int64("maxdist", 3, "max edge length (random kinds)")
	maxReq := fs.Int64("maxreq", 10, "max client requests (random kinds)")
	extra := fs.Int("extra", 4, "extra clients (random kinds)")
	withD := fs.Bool("distance", false, "draw a finite dmax (random kinds)")
	m := fs.Int("m", 2, "gadget parameter m")
	b := fs.Int64("b", 16, "gadget parameter B (i2)")
	delta := fs.Int("delta", 2, "gadget parameter Δ (im)")
	k := fs.Int("k", 4, "gadget parameter K (fig4)")
	nodes := fs.Int("nodes", 0, "generate ~this many total nodes in one streaming pass (overrides -kind; use with -stream for huge trees)")
	stream := fs.Bool("stream", false, "emit the streaming chunked format instead of one JSON document")
	chunk := fs.Int("chunk", 0, "nodes per chunk with -stream (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))

	if *nodes > 0 {
		cfg := gen.TreeConfig{MaxArity: *arity, MaxDist: *maxDist, MaxReq: *maxReq}
		fi, err := gen.RandomFlatInstance(rng, *nodes, cfg, *withD)
		if err != nil {
			return err
		}
		return emitFlat(stdout, fi, *stream, *chunk)
	}

	var in *core.Instance
	switch *kind {
	case "random", "binary", "caterpillar":
		cfg := gen.TreeConfig{
			Internals:    *internals,
			MaxArity:     *arity,
			MaxDist:      *maxDist,
			MaxReq:       *maxReq,
			ExtraClients: *extra,
		}
		switch *kind {
		case "binary":
			cfg.MaxArity = 2
		case "caterpillar":
			t := gen.Caterpillar(rng, *internals, *maxDist, *maxReq)
			in = &core.Instance{Tree: t, W: t.MaxRequests() + rng.Int63n(t.TotalRequests()/2+1), DMax: core.NoDistance}
		}
		if in == nil {
			in = gen.RandomInstance(rng, cfg, *withD)
		}
	case "i2":
		as := gen.ThreePartitionYes(rng, *m, *b)
		var err error
		in, _, err = gen.GadgetI2(as, *b)
		if err != nil {
			return err
		}
	case "i4":
		as := gen.TwoPartitionYes(rng, *m, 9)
		var err error
		in, err = gen.GadgetI4(as)
		if err != nil {
			return err
		}
	case "im":
		res, err := gen.GadgetIm(*m, *delta)
		if err != nil {
			return err
		}
		in = res.Instance
	case "fig4":
		res, err := gen.GadgetFig4(*k)
		if err != nil {
			return err
		}
		in = res.Instance
	case "i6":
		as := gen.TwoPartitionEqualYes(rng, *m, 9)
		var err error
		in, _, err = gen.GadgetI6(as)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}

	if *stream {
		fi := &core.FlatInstance{Flat: in.Tree, W: in.W, DMax: in.DMax}
		return emitFlat(stdout, fi, true, *chunk)
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(in)
}

// emitFlat writes an instance either chunked (buffered — a
// million-node stream is tens of MB of small writes) or as the
// classic single-document instance JSON.
func emitFlat(stdout io.Writer, fi *core.FlatInstance, stream bool, chunk int) error {
	if stream {
		bw := bufio.NewWriterSize(stdout, 1<<20)
		if err := core.WriteChunked(bw, fi, chunk); err != nil {
			return err
		}
		return bw.Flush()
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(&core.Instance{Tree: fi.Flat, W: fi.W, DMax: fi.DMax})
}
