package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"replicatree/internal/core"
	"replicatree/internal/decomp"
	"replicatree/internal/gen"
	"replicatree/internal/tree"
)

// Huge-tree instance sizes: the full run streams a quarter of a million
// nodes, the smoke run twenty thousand. Chunks hold 4,096 nodes. At a
// million nodes an op took 3–5 s, so a run held three ops, each spanning
// several of the host's changes of speed, and the process peaked at
// 520 MB; at a quarter million an op takes about a second, a run holds
// fifteen, and the path is the same: chunk parsing, about 45 pieces and
// boundary coordination.
const (
	hugeNodes      = 250_000
	hugeSmokeNodes = 20_000
	hugeChunk      = 4096
)

// hugeInput is the huge-tree workload's input: a generated flat
// instance held as its chunked stream, plus what the oracle expects.
type hugeInput struct {
	nodes  int
	stream []byte
	hash   string
	bound  int
}

// encodeHuge is one huge-tree set-up: the chunked encoding of the
// instance, held in memory.
func encodeHuge(fi *core.FlatInstance) ([]byte, error) {
	var buf bytes.Buffer
	if err := core.WriteChunked(&buf, fi, hugeChunk); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// hugeOp is one huge-tree operation: ingest the stream, hash it, and
// solve it through the decomposition engine with verification on.
func hugeOp(stream []byte) (*decomp.Result, string, error) {
	fi, err := core.ReadChunked(bytes.NewReader(stream))
	if err != nil {
		return nil, "", err
	}
	hash := fi.CanonicalHash()
	res, err := decomp.SolveFlat(context.Background(), fi, decomp.Options{Verify: true})
	return res, hash, err
}

// checkHuge is the huge-tree oracle: the solve verified (SolveFlat
// checks the stitched placement against the instance), the stream
// hashes to the generated instance, the bound is the generator's, and
// the replica count repeats the warm-up op's.
func (in *hugeInput) check(res *decomp.Result, hash string, replicas int) error {
	switch {
	case hash != in.hash:
		return fmt.Errorf("oracle: stream hashes to %s, instance to %s", hash, in.hash)
	case res.LowerBound != in.bound:
		return fmt.Errorf("oracle: bound %d, instance bound %d", res.LowerBound, in.bound)
	case res.Replicas != replicas:
		return fmt.Errorf("oracle: %d replicas, warm-up op had %d", res.Replicas, replicas)
	}
	return nil
}

// warmUp runs the untimed first op, whose replica count every later op
// must repeat.
func (in *hugeInput) warmUp() (*decomp.Result, error) {
	res, hash, err := hugeOp(in.stream)
	if err == nil {
		err = in.check(res, hash, res.Replicas)
	}
	if err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	return res, nil
}

// setUpHuge generates the instance (input, untimed) and encodes it
// setupReps times; it returns the input and the median encode time.
func setUpHuge(cfg config) (*hugeInput, float64, error) {
	nodes := hugeNodes
	if cfg.smoke {
		nodes = hugeSmokeNodes
	}
	fi, err := gen.RandomFlatInstance(rngFor(cfg.seed, "huge", 0), nodes, gen.TreeConfig{}, false)
	if err != nil {
		return nil, 0, err
	}
	// The generator draws W anywhere between the largest request and half
	// the total, which swings the replica count (and the solve's work) by
	// orders of magnitude from seed to seed. Pinning W to a fortieth of
	// the total keeps the lower bound near 40 for every seed while the
	// tree itself still varies with the seed.
	var total int64
	for _, r := range fi.Flat.Reqs {
		total += r
	}
	fi.W = max(fi.Flat.MaxRequests(), total/40)
	in := &hugeInput{nodes: fi.Flat.Len(), hash: fi.CanonicalHash(), bound: fi.LowerBound()}
	setups := make([]float64, 0, setupReps)
	for r := 0; r < setupReps; r++ {
		in.stream = nil
		runtime.GC()
		begin := time.Now()
		if in.stream, err = encodeHuge(fi); err != nil {
			return nil, 0, err
		}
		setups = append(setups, time.Since(begin).Seconds())
	}
	return in, median(setups), nil
}

// runHuge measures huge-tree end to end: one warm-up op, then ops back
// to back on one client until the run's time is spent; p50_ms is the
// median op.
func runHuge(cfg config) (*result, error) {
	in, setup, err := setUpHuge(cfg)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	warm, err := in.warmUp()
	if err != nil {
		return nil, err
	}
	var walls []time.Duration
	failed := 0
	budget := time.Duration(cfg.seconds * float64(time.Second))
	begin := time.Now()
	for len(walls) == 0 || time.Since(begin) < budget {
		t0 := time.Now()
		res, hash, err := hugeOp(in.stream)
		walls = append(walls, time.Since(t0))
		if err == nil {
			err = in.check(res, hash, warm.Replicas)
		}
		if err != nil {
			fmt.Fprintln(cfg.log, "huge-tree:", err)
			failed++
		}
	}
	elapsed := time.Since(begin)
	m := metricSet{}
	m.set("setup_s", "s", setup)
	m.set("p50_ms", "ms", ms(quantile(walls, 0.50)))
	m.set("peak_rss_mb", "MB", peakRSSMB())
	fmt.Fprintf(cfg.log, "diagnostics: %d-node stream of %.1f MB, %d ops, slowest %.3f ms, capacity %.3f ops/s; %d replicas (bound %d, gap %.4f), %d pieces, %d rounds\n",
		in.nodes, float64(len(in.stream))/(1<<20), len(walls), ms(quantile(walls, 1)), float64(len(walls)-failed)/elapsed.Seconds(),
		warm.Replicas, in.bound, warm.Gap, warm.Pieces, warm.Rounds)
	return &result{Correct: failed == 0, Attempted: len(walls), Failed: failed, Metrics: m}, nil
}

// traceHuge is the traced run of huge-tree: one untraced op for the
// runtime counters, then up to hugeReplayOps ops with a span around
// each layer call (the solve with verification off, so the final
// check is its own span), each followed by a probe of the partitioner
// that SolveFlat runs inside decomp.solve.
func traceHuge(cfg config) (*result, error) {
	in, _, err := setUpHuge(cfg)
	if err != nil {
		return nil, err
	}
	acc := &layerAcc{}
	runtime.GC()
	gc0, alloc0 := runtimeCounters()
	warm, err := in.warmUp()
	if err != nil {
		return nil, err
	}
	gc1, alloc1 := runtimeCounters()
	acc.gcPerKop = float64(gc1-gc0) * 1000
	acc.allocMBPerKop = float64(alloc1-alloc0) * 1000 / (1 << 20)

	tr := newTracer()
	failed := 0
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i < hugeReplayOps && (i == 0 || time.Now().Before(deadline)); i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		root := tr.begin("op", -1, i, 0)
		res, f, hash, err := tracedHugeOp(tr, root, in.stream)
		tr.end(root)
		runtime.ReadMemStats(&m1)
		acc.handlerNS += tr.spans[root].dur()
		acc.allocs += m1.Mallocs - m0.Mallocs
		acc.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		acc.reqBytes += int64(len(in.stream))
		acc.ops++
		if err == nil {
			err = in.check(res, hash, warm.Replicas)
		}
		if err != nil {
			fmt.Fprintln(cfg.log, "huge-tree:", err)
			failed++
			continue
		}
		acc.decompRuns++
		acc.gapSum += res.Gap
		acc.answers++
		acc.decomp.Pieces += res.Pieces
		acc.decomp.Rounds += res.Rounds
		acc.decomp.Moved += res.Moved
		acc.decomp.Merged += res.Merged
		probe(tr, "tree.partition", i, func() { tree.BuildPieces(f.Flat, tree.PartitionPoints(f.Flat, decomp.DefaultPieceSize)) })
	}
	if err := saveTrace(cfg, tr, acc.ops); err != nil {
		return nil, err
	}
	return &result{
		Correct:   failed == 0,
		Attempted: 1 + acc.ops,
		Failed:    failed,
		Metrics:   layerMetrics(acc, tr.spans, counters{}, counters{}),
	}, nil
}

// tracedHugeOp is hugeOp with a span per layer call.
func tracedHugeOp(tr *tracer, root int, stream []byte) (*decomp.Result, *core.FlatInstance, string, error) {
	sp := tr.child("core.read_chunked", root)
	fi, err := core.ReadChunked(bytes.NewReader(stream))
	tr.end(sp)
	if err != nil {
		return nil, nil, "", err
	}
	sp = tr.child("core.flat_hash", root)
	hash := fi.CanonicalHash()
	tr.end(sp)
	sp = tr.child("decomp.solve", root)
	res, err := decomp.SolveFlat(context.Background(), fi, decomp.Options{})
	tr.end(sp)
	if err != nil {
		return nil, nil, "", err
	}
	sp = tr.child("core.flat_verify", root)
	err = fi.Verify(core.Multiple, res.Solution)
	tr.end(sp)
	return res, fi, hash, err
}
