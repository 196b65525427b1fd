// Benchmarks: one per experiment (E1–E10, matching DESIGN.md's
// per-experiment index) plus scaling series for the three algorithms
// and the supporting substrates. Run with:
//
//	go test -bench=. -benchmem
package replicatree_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/delta"
	"replicatree/internal/exact"
	"replicatree/internal/experiments"
	"replicatree/internal/gen"
	"replicatree/internal/hetero"
	"replicatree/internal/lp"
	"replicatree/internal/multiple"
	"replicatree/internal/service"
	"replicatree/internal/sim"
	"replicatree/internal/single"
	"replicatree/internal/solver"
	"replicatree/internal/tree"
)

// BenchmarkE1_NPGadgetSingle: exact solving of the 3-Partition gadget
// I2 (Theorem 1 / Fig. 1).
func BenchmarkE1_NPGadgetSingle(b *testing.B) {
	in, _, err := gen.GadgetI2([]int64{5, 5, 6, 5, 5, 6}, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.SolveSingle(in, exact.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2_InapproxGadget: exact solving of the 2-Partition gadget
// I4 (Theorem 2 / Fig. 2).
func BenchmarkE2_InapproxGadget(b *testing.B) {
	in, err := gen.GadgetI4([]int64{3, 3, 2, 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.SolveSingle(in, exact.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3_TightSingleGen: Algorithm 1 on the tight family Im
// (Theorem 3 / Fig. 3).
func BenchmarkE3_TightSingleGen(b *testing.B) {
	res, err := gen.GadgetIm(16, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol := coldSolve(b, solver.SingleGen, res.Instance)
		if sol.NumReplicas() != res.AlgoReplicas {
			b.Fatalf("ratio drifted: %d != %d", sol.NumReplicas(), res.AlgoReplicas)
		}
	}
}

// BenchmarkE4_NoDRatio: Algorithm 1 on a random NoD instance
// (Corollary 1 regime).
func BenchmarkE4_NoDRatio(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	in := gen.RandomInstance(rng, gen.TreeConfig{
		Internals: 60, MaxArity: 3, MaxDist: 3, MaxReq: 15, ExtraClients: 30,
	}, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coldSolve(b, solver.SingleGen, in)
	}
}

// BenchmarkE5_TightSingleNoD: Algorithm 2 on the tight family of
// Fig. 4 (Theorem 4).
func BenchmarkE5_TightSingleNoD(b *testing.B) {
	res, err := gen.GadgetFig4(64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol := coldSolve(b, solver.SingleNoD, res.Instance)
		if sol.NumReplicas() != res.AlgoReplicas {
			b.Fatalf("ratio drifted: %d != %d", sol.NumReplicas(), res.AlgoReplicas)
		}
	}
}

// BenchmarkE6_NPGadgetMultiple: constructing and verifying the proof's
// explicit 4m-replica solution of the I6 gadget (Theorem 5 / Fig. 5).
func BenchmarkE6_NPGadgetMultiple(b *testing.B) {
	as := []int64{1, 2, 2, 2, 2, 3, 3, 3}
	I := []int{1, 4, 6, 8}
	in, _, err := gen.GadgetI6(as)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := gen.I6Solution(in, as, I)
		if err != nil {
			b.Fatal(err)
		}
		if err := core.Verify(in, core.Multiple, sol); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7_MultipleBinOptimal: Algorithm 3 on a random binary
// instance with distance constraints (Theorem 6 regime).
func BenchmarkE7_MultipleBinOptimal(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	in := gen.RandomInstance(rng, gen.TreeConfig{
		Internals: 100, MaxArity: 2, MaxDist: 3, MaxReq: 15, ExtraClients: 40,
	}, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coldSolve(b, solver.MultipleBin, in)
	}
}

// BenchmarkE8_GreedyMultiple: the general-arity generalisation on a
// wide tree.
func BenchmarkE8_GreedyMultiple(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	in := gen.RandomInstance(rng, gen.TreeConfig{
		Internals: 100, MaxArity: 5, MaxDist: 3, MaxReq: 15, ExtraClients: 60,
	}, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coldSolve(b, solver.MultipleGreedy, in)
	}
}

// BenchmarkE9_PolicyComparison: the full per-instance pipeline of the
// policy-comparison experiment (all heuristics, no exact solvers).
func BenchmarkE9_PolicyComparison(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	in := gen.RandomInstance(rng, gen.TreeConfig{
		Internals: 40, MaxArity: 2, MaxDist: 3, MaxReq: 15, ExtraClients: 20,
	}, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := coldSolve(b, solver.SingleGen, in)
		nd := coldSolve(b, solver.SingleNoD, in)
		_ = single.PushUp(in, nd)
		m := coldSolve(b, solver.MultipleBest, in)
		if g.NumReplicas() < m.NumReplicas() {
			b.Fatal("Multiple worse than Single heuristic — impossible")
		}
	}
}

// BenchmarkE10_ExperimentSuite: the whole quick-scale experiment
// harness end to end.
func BenchmarkE10_ExperimentSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.All(experiments.Quick, 1) {
			if !r.OK {
				b.Fatalf("%s failed to reproduce", r.ID)
			}
		}
	}
}

// coldSolve runs one registered engine on in and returns its verified
// solution. It lends the engine a fresh scratch, so every call is a
// cold solve: session buffers grown from empty and, for single-gen, no
// memo to reuse.
func coldSolve(b *testing.B, name string, in *core.Instance) *core.Solution {
	req := solver.Request{Instance: in, NoBound: true, Scratch: solver.NewScratch()}
	rep, err := solver.MustLookup(name).Solve(context.Background(), req)
	if err != nil {
		b.Fatal(err)
	}
	return rep.Solution
}

// Scaling series — the complexity claims of Theorems 3, 4 and 6.

func scalingInstance(n int, arity int) *core.Instance {
	rng := rand.New(rand.NewSource(int64(n)))
	if arity == 2 {
		t := gen.Caterpillar(rng, n, 3, 9)
		return &core.Instance{Tree: t, W: t.MaxRequests() + 20, DMax: core.NoDistance}
	}
	t := gen.RandomTree(rng, gen.TreeConfig{Internals: n, MaxArity: arity, MaxDist: 3, MaxReq: 9})
	return &core.Instance{Tree: t, W: t.MaxRequests() + 20, DMax: core.NoDistance}
}

func BenchmarkScalingSingleGen(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		in := scalingInstance(n, 2)
		b.Run(fmt.Sprintf("nodes=%d", in.Tree.Len()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				coldSolve(b, solver.SingleGen, in)
			}
		})
	}
}

func BenchmarkScalingSingleNoD(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		in := scalingInstance(n, 2)
		b.Run(fmt.Sprintf("nodes=%d", in.Tree.Len()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				coldSolve(b, solver.SingleNoD, in)
			}
		})
	}
}

func BenchmarkScalingMultipleBin(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		in := scalingInstance(n, 2)
		b.Run(fmt.Sprintf("nodes=%d", in.Tree.Len()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				coldSolve(b, solver.MultipleBin, in)
			}
		})
	}
}

func BenchmarkScalingGreedyArity4(b *testing.B) {
	for _, n := range []int{100, 400, 1600} {
		in := scalingInstance(n, 4)
		b.Run(fmt.Sprintf("nodes=%d", in.Tree.Len()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				coldSolve(b, solver.MultipleGreedy, in)
			}
		})
	}
}

// Substrate benchmarks.

func BenchmarkVerify(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	in := gen.RandomInstance(rng, gen.TreeConfig{
		Internals: 200, MaxArity: 2, MaxDist: 3, MaxReq: 15, ExtraClients: 100,
	}, true)
	sol := coldSolve(b, solver.MultipleBin, in)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.Verify(in, core.Multiple, sol); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLowerBound(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	in := gen.RandomInstance(rng, gen.TreeConfig{
		Internals: 500, MaxArity: 3, MaxDist: 3, MaxReq: 15, ExtraClients: 200,
	}, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if core.LowerBound(in) < 1 {
			b.Fatal("bound collapsed")
		}
	}
}

func BenchmarkExactMultipleSmall(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	in := gen.RandomInstance(rng, gen.TreeConfig{
		Internals: 4, MaxArity: 2, MaxDist: 3, MaxReq: 9, ExtraClients: 2,
	}, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.SolveMultiple(in, exact.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Extension benchmarks (E11/E12 and the new subsystems).

func BenchmarkE11_LPLowerBound(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	in := gen.RandomInstance(rng, gen.TreeConfig{
		Internals: 15, MaxArity: 3, MaxDist: 3, MaxReq: 9, ExtraClients: 10,
	}, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lp.LowerBound(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11_BinarizedLowerBound(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	in := gen.RandomInstance(rng, gen.TreeConfig{
		Internals: 60, MaxArity: 5, MaxDist: 3, MaxReq: 9, ExtraClients: 30,
	}, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := multiple.BinarizedLowerBound(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE12_FailureReplay(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	in := gen.RandomInstance(rng, gen.TreeConfig{
		Internals: 30, MaxArity: 2, MaxDist: 3, MaxReq: 9, ExtraClients: 15,
	}, false)
	sol := coldSolve(b, solver.MultipleBest, in)
	victim := sol.Replicas[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunWithFailures(in, core.Multiple, sol,
			sim.Config{Steps: 20}, []sim.Failure{{Server: victim, Step: 10}}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMinimizeLatency(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	in := gen.RandomInstance(rng, gen.TreeConfig{
		Internals: 40, MaxArity: 2, MaxDist: 4, MaxReq: 12, ExtraClients: 20,
	}, false)
	sol := coldSolve(b, solver.MultipleBest, in)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := multiple.MinimizeLatency(in, sol); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeteroGreedy(b *testing.B) {
	rng := rand.New(rand.NewSource(18))
	base := gen.RandomInstance(rng, gen.TreeConfig{
		Internals: 20, MaxArity: 3, MaxDist: 3, MaxReq: 9, ExtraClients: 10,
	}, false)
	in := hetero.FromUniform(base)
	for j := range in.Cap {
		if !in.Tree.IsClient(tree.NodeID(j)) {
			in.Cap[j] = base.W + rng.Int63n(base.W)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hetero.Greedy(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinarize(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	t := gen.RandomTree(rng, gen.TreeConfig{
		Internals: 200, MaxArity: 6, MaxDist: 3, MaxReq: 9, ExtraClients: 100,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bz := tree.Binarize(t)
		if !bz.Tree.IsBinary() {
			b.Fatal("not binary")
		}
	}
}

func BenchmarkPushUp(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	in := gen.RandomInstance(rng, gen.TreeConfig{
		Internals: 40, MaxArity: 2, MaxDist: 3, MaxReq: 12, ExtraClients: 20,
	}, false)
	sol := coldSolve(b, solver.SingleGen, in)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = single.PushUp(in, sol)
	}
}

// Solver-engine benchmarks: registry dispatch and the parallel batch
// runner that powers the experiment sweeps. The workers=1 series is
// the sequential baseline; workers=max shows the multicore speedup.

func solverBatchTasks() []solver.Task {
	rng := rand.New(rand.NewSource(22))
	names := []string{solver.SingleGen, solver.SingleBest, solver.MultipleBest, solver.MultipleGreedy}
	var tasks []solver.Task
	for i := 0; i < 16; i++ {
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals: 60, MaxArity: 3, MaxDist: 3, MaxReq: 12, ExtraClients: 30,
		}, false)
		for _, name := range names {
			tasks = append(tasks, solver.Task{Engine: solver.MustLookup(name), Request: solver.Request{Instance: in}})
		}
	}
	return tasks
}

func BenchmarkSolverBatch(b *testing.B) {
	tasks := solverBatchTasks()
	for _, workers := range []int{1, 0} {
		label := "workers=max"
		if workers == 1 {
			label = "workers=1"
		}
		b.Run(label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, st := solver.Batch(context.Background(), tasks, solver.Options{Workers: workers})
				if st.Failed > 0 || st.Skipped > 0 {
					b.Fatalf("batch degraded: %+v", st)
				}
			}
		})
	}
}

// Service benchmarks: the HTTP daemon's hot path. The cold series
// disables the cache so every POST /v2/solve pays the full solve;
// the warm series serves the same golden instance from the canonical-
// hash LRU. The warm/cold ratio is the caching layer's whole point —
// the acceptance bar is warm ≥ 10× faster than cold.

// serviceSolveBody renders a POST /v2/solve body for an lp-round
// placement on a ~200-node instance: a solve expensive enough (dense
// simplex) that the cache, not HTTP or JSON, decides the outcome.
func serviceSolveBody(b *testing.B) []byte {
	b.Helper()
	rng := rand.New(rand.NewSource(23))
	in := gen.RandomInstance(rng, gen.TreeConfig{
		Internals: 100, MaxArity: 3, MaxDist: 3, MaxReq: 12, ExtraClients: 50,
	}, true)
	body, err := json.Marshal(service.SolveRequestV2{Solver: solver.LPRound, Instance: in})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

func benchServiceSolve(b *testing.B, cacheSize int, body []byte) {
	srv := service.New(service.Options{CacheSize: cacheSize})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func() bool {
		resp, err := http.Post(ts.URL+"/v2/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		var sr struct {
			Cached bool `json:"cached"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		return sr.Cached
	}
	warmed := post() // populate the cache (no-op when disabled)
	if wantCached := cacheSize > 0; warmed {
		b.Fatal("first request reported cached")
	} else if cached := post(); cached != wantCached {
		b.Fatalf("cache state: got cached=%v, want %v", cached, wantCached)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

func BenchmarkServiceSolveV2Cold(b *testing.B) { benchServiceSolve(b, 0, serviceSolveBody(b)) }
func BenchmarkServiceSolveV2Warm(b *testing.B) {
	benchServiceSolve(b, service.DefaultCacheSize, serviceSolveBody(b))
}

// BenchmarkSolveCacheHit times a cached POST /v2/solve, client
// included, on binary trees of ~210 and ~2k nodes: the engines do no
// work, so request decoding and response encoding set the cost.
func BenchmarkSolveCacheHit(b *testing.B) {
	for _, internals := range []int{150, 1500} {
		rng := rand.New(rand.NewSource(29))
		t := gen.RandomTree(rng, gen.TreeConfig{Internals: internals, MaxArity: 2, MaxDist: 4, MaxReq: 10})
		in := &core.Instance{Tree: t, W: max(t.MaxRequests(), t.TotalRequests()/16), DMax: 2 * int64(t.Height())}
		body, err := json.Marshal(service.SolveRequestV2{Solver: solver.SingleGen, Instance: in})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("nodes=%d", t.Len()), func(b *testing.B) {
			benchServiceSolve(b, service.DefaultCacheSize, body)
		})
	}
}

func BenchmarkCanonicalHash(b *testing.B) {
	in := scalingInstance(1600, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if in.CanonicalHash() == "" {
			b.Fatal("empty hash")
		}
	}
}

// BenchmarkSolverRegistryLookup is the dispatch path: name → engine,
// one RLock'd map read.
func BenchmarkSolverRegistryLookup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := solver.Lookup(solver.MultipleBest); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverEngineSolve measures the per-solve overhead of the
// v2 engine wrapper (request normalization + report assembly) around
// a cheap polynomial solve.
func BenchmarkSolverEngineSolve(b *testing.B) {
	rng := rand.New(rand.NewSource(24))
	in := gen.RandomInstance(rng, gen.TreeConfig{
		Internals: 60, MaxArity: 3, MaxDist: 3, MaxReq: 12, ExtraClients: 30,
	}, false)
	eng := solver.MustLookup(solver.MultipleGreedy)
	req := solver.Request{Instance: in}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Solve(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAutoPortfolio runs the capability-driven portfolio on a
// mid-size distance-constrained instance (exact candidates excluded
// by the size gate): the price of "best of every heuristic".
func BenchmarkAutoPortfolio(b *testing.B) {
	rng := rand.New(rand.NewSource(25))
	in := gen.RandomInstance(rng, gen.TreeConfig{
		Internals: 120, MaxArity: 3, MaxDist: 3, MaxReq: 12, ExtraClients: 60,
	}, true)
	eng := solver.MustLookup(solver.Auto)
	req := solver.Request{Instance: in}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := eng.Solve(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Solution == nil {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkE13_ConjectureProbe(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	in := gen.RandomInstance(rng, gen.TreeConfig{
		Internals: 40, MaxArity: 2, MaxDist: 3, MaxReq: 12, ExtraClients: 20,
	}, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coldSolve(b, solver.SingleBest, in)
	}
}

// benchWarmSolve measures Engine.Solve on a ~200-node binary instance
// through the public seam. The "Cold" variants lend a fresh scratch
// per solve, so every solve grows its buffers from empty and ingests
// the instance (a pooled scratch would not do: it keeps single-gen's
// memo, which makes a re-solve of the same instance a memo hit); the
// "Warm" variants lend one scratch whose session buffers stay bound
// to the instance (zero allocations once ingested).
func benchWarmSolve(b *testing.B, name string, warm bool) {
	rng := rand.New(rand.NewSource(97))
	eng := solver.MustLookup(name)
	in := gen.RandomInstance(rng, gen.TreeConfig{
		Internals: 150, MaxArity: 2, MaxDist: 4, MaxReq: 10,
	}, eng.Capabilities().SupportsDMax)
	if in.W < in.Tree.MaxRequests() {
		in.W = in.Tree.MaxRequests()
	}
	req := solver.Request{Instance: in}
	if warm {
		req.Scratch = solver.NewScratch()
	}
	ctx := context.Background()
	if _, err := eng.Solve(ctx, req); err != nil { // ingest + grow buffers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !warm {
			req.Scratch = solver.NewScratch()
		}
		rep, err := eng.Solve(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Solution == nil {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkWarmSingleGenCold(b *testing.B)      { benchWarmSolve(b, solver.SingleGen, false) }
func BenchmarkWarmSingleGenWarm(b *testing.B)      { benchWarmSolve(b, solver.SingleGen, true) }
func BenchmarkWarmSingleNoDCold(b *testing.B)      { benchWarmSolve(b, solver.SingleNoD, false) }
func BenchmarkWarmSingleNoDWarm(b *testing.B)      { benchWarmSolve(b, solver.SingleNoD, true) }
func BenchmarkWarmMultipleBinCold(b *testing.B)    { benchWarmSolve(b, solver.MultipleBin, false) }
func BenchmarkWarmMultipleBinWarm(b *testing.B)    { benchWarmSolve(b, solver.MultipleBin, true) }
func BenchmarkWarmMultipleGreedyCold(b *testing.B) { benchWarmSolve(b, solver.MultipleGreedy, false) }
func BenchmarkWarmMultipleGreedyWarm(b *testing.B) { benchWarmSolve(b, solver.MultipleGreedy, true) }
func BenchmarkWarmLPRoundCold(b *testing.B)        { benchWarmSolve(b, solver.LPRound, false) }
func BenchmarkWarmLPRoundWarm(b *testing.B)        { benchWarmSolve(b, solver.LPRound, true) }

// benchDeltaMutate measures one mutate-and-re-solve cycle at three
// service levels: "cold" re-solves the mutated instance through
// Engine.Solve on a borrowed pooled scratch, "warm" on a lent scratch,
// and "delta" drives a delta.Session, which solves through the same
// seam on a scratch of its own. All three run the same memoized
// single.Session.Gen, which re-visits only the dirtied root paths
// whenever the scratch's memo was left by a same-shape instance.
func benchDeltaMutate(b *testing.B, internals int, mode string) {
	rng := rand.New(rand.NewSource(97))
	in := gen.RandomInstance(rng, gen.TreeConfig{
		Internals: internals, MaxArity: 2, MaxDist: 4, MaxReq: 10,
	}, true)
	if in.W < in.Tree.MaxRequests() {
		in.W = in.Tree.MaxRequests()
	}
	clients := in.Tree.Clients()
	ctx := context.Background()

	if mode == "delta" {
		s, err := delta.New(in, solver.SingleGen)
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Resolve(ctx); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c := clients[i%len(clients)]
			if err := s.Apply([]delta.Mutation{{Op: delta.OpSetRequest, Node: c, Requests: int64(1 + i%10)}}); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Resolve(ctx); err != nil {
				b.Fatal(err)
			}
		}
		return
	}

	eng := solver.MustLookup(solver.SingleGen)
	ed := tree.NewEditor(in.Tree)
	work := &core.Instance{Tree: ed.Tree(), W: in.W, DMax: in.DMax}
	req := solver.Request{Instance: work}
	if mode == "warm" {
		req.Scratch = solver.NewScratch()
	}
	if _, err := eng.Solve(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := clients[i%len(clients)]
		if err := ed.SetRequests(c, int64(1+i%10)); err != nil {
			b.Fatal(err)
		}
		// A fresh wrapper forces scratch re-ingestion of the mutated
		// tree, mirroring what a stateless consumer would do.
		req.Instance = &core.Instance{Tree: ed.Tree(), W: in.W, DMax: in.DMax}
		if _, err := eng.Solve(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplanMutate measures one set_request plus Resolve on a
// multiple-replan delta.Session, over an instance shaped like
// replicabench's session-churn replan sessions: 150 internals, arity
// 2, W = max(maxR, total/16) and dmax twice the height.
func BenchmarkReplanMutate(b *testing.B) {
	rng := rand.New(rand.NewSource(98))
	t := gen.RandomTree(rng, gen.TreeConfig{Internals: 150, MaxArity: 2, MaxDist: 4, MaxReq: 10})
	in := &core.Instance{Tree: t, W: max(t.MaxRequests(), t.TotalRequests()/16), DMax: 2 * int64(t.Height())}
	clients := t.Clients()
	ctx := context.Background()
	s, err := delta.New(in, solver.MultipleReplan)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Resolve(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := clients[(i*7)%len(clients)]
		if err := s.Apply([]delta.Mutation{{Op: delta.OpSetRequest, Node: c, Requests: int64(1 + i%10)}}); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Resolve(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeltaColdSolve200(b *testing.B) { benchDeltaMutate(b, 150, "cold") }
func BenchmarkDeltaWarmSolve200(b *testing.B) { benchDeltaMutate(b, 150, "warm") }
func BenchmarkDeltaMutate200(b *testing.B)    { benchDeltaMutate(b, 150, "delta") }
func BenchmarkDeltaColdSolve2k(b *testing.B)  { benchDeltaMutate(b, 1500, "cold") }
func BenchmarkDeltaWarmSolve2k(b *testing.B)  { benchDeltaMutate(b, 1500, "warm") }
func BenchmarkDeltaMutate2k(b *testing.B)     { benchDeltaMutate(b, 1500, "delta") }
