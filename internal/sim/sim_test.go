package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/solver"
	"replicatree/internal/tree"
)

func buildInst() *core.Instance {
	b := tree.NewBuilder()
	root := b.Root("root")
	a := b.Internal(root, 2, "a")
	b.Client(a, 3, 5, "c1")
	b.Client(a, 1, 7, "c2")
	b.Client(root, 4, 2, "c3")
	return &core.Instance{Tree: b.MustBuild(), W: 12, DMax: core.NoDistance}
}

func TestRunDeterministic(t *testing.T) {
	in := buildInst()
	sol := enginePlacement(t, solver.SingleGen, in)
	m, err := Run(in, core.Single, sol, Config{Steps: 50})
	if err != nil {
		t.Fatal(err)
	}
	if m.Steps != 50 {
		t.Fatalf("Steps = %d", m.Steps)
	}
	total := in.Tree.TotalRequests() * 50
	if m.TotalEmitted != total || m.TotalServed != total {
		t.Fatalf("emitted %d served %d, want %d", m.TotalEmitted, m.TotalServed, total)
	}
	// Without jitter no server can ever exceed W.
	if m.OverloadSteps != 0 || m.MaxOverload != 0 {
		t.Fatalf("deterministic run overloaded: %+v", m)
	}
	for srv, peak := range m.PeakLoad {
		if peak > in.W {
			t.Fatalf("server %d peak %d > W", srv, peak)
		}
	}
}

func TestRunRespectsDMax(t *testing.T) {
	in := buildInst()
	in.DMax = 5
	sol := enginePlacement(t, solver.SingleGen, in)
	m, err := Run(in, core.Single, sol, Config{Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxLatency > in.DMax {
		t.Fatalf("observed latency %d beyond dmax %d", m.MaxLatency, in.DMax)
	}
	if m.MeanLatency < 0 || m.MeanLatency > float64(in.DMax) {
		t.Fatalf("mean latency %v out of range", m.MeanLatency)
	}
}

func TestRunRejectsInfeasible(t *testing.T) {
	in := buildInst()
	bad := &core.Solution{} // nothing served
	if _, err := Run(in, core.Single, bad, Config{}); err == nil {
		t.Fatal("Run must reject infeasible solutions")
	}
}

func TestRunWithJitterConservation(t *testing.T) {
	in := buildInst()
	sol := enginePlacement(t, solver.MultipleBin, in)
	m, err := Run(in, core.Multiple, sol, Config{Steps: 200, Jitter: 0.3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Every emitted request is served (routing preserves totals).
	if m.TotalEmitted != m.TotalServed {
		t.Fatalf("emitted %d != served %d", m.TotalEmitted, m.TotalServed)
	}
	// With 30% jitter the emitted total is within 30% of nominal.
	nominal := float64(in.Tree.TotalRequests() * 200)
	if f := float64(m.TotalEmitted); f < 0.65*nominal || f > 1.35*nominal {
		t.Fatalf("emitted %v too far from nominal %v", f, nominal)
	}
}

func TestRunJitterOverloadDetection(t *testing.T) {
	// A saturated server (load exactly W) must overload under upward
	// jitter at least once in a long run.
	b := tree.NewBuilder()
	r := b.Root("r")
	b.Client(r, 1, 10, "c")
	b.Client(r, 1, 1, "d")
	in := &core.Instance{Tree: b.MustBuild(), W: 11, DMax: core.NoDistance}
	sol := enginePlacement(t, solver.ExactMultiple, in)
	if sol.NumReplicas() != 1 {
		t.Fatalf("want 1 replica, got %v", sol)
	}
	m, err := Run(in, core.Multiple, sol, Config{Steps: 500, Jitter: 0.5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.OverloadSteps == 0 {
		t.Fatal("expected overload steps under 50% jitter on a saturated server")
	}
	if m.MaxOverload <= 0 {
		t.Fatal("MaxOverload should be positive")
	}
}

func TestRunDefaultsAndClamping(t *testing.T) {
	in := buildInst()
	sol := enginePlacement(t, solver.SingleGen, in)
	m, err := Run(in, core.Single, sol, Config{Steps: 0, Jitter: -3})
	if err != nil {
		t.Fatal(err)
	}
	if m.Steps != 100 {
		t.Fatalf("default steps = %d, want 100", m.Steps)
	}
	if _, err := Run(in, core.Single, sol, Config{Jitter: 5}); err != nil {
		t.Fatal("huge jitter should clamp, not fail")
	}
}

// TestSimAgreesWithVerifierOnRandom: any feasible solution replayed
// without jitter serves everything within W and dmax.
func TestSimAgreesWithVerifierOnRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 40; trial++ {
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals: 1 + rng.Intn(8),
			MaxArity:  2,
		}, trial%2 == 0)
		sol := enginePlacement(t, solver.MultipleBin, in)
		m, err := Run(in, core.Multiple, sol, Config{Steps: 20})
		if err != nil {
			t.Fatal(err)
		}
		if m.OverloadSteps != 0 {
			t.Fatalf("trial %d: overloads without jitter", trial)
		}
		if m.MaxLatency > in.DMax {
			t.Fatalf("trial %d: latency above dmax", trial)
		}
	}
}

// TestRunSeedFixesMetrics: the same Config.Seed gives equal Metrics,
// on an instance with enough clients that the order in which they
// draw their demand noise decides the totals.
func TestRunSeedFixesMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	in := gen.RandomInstance(rng, gen.TreeConfig{Internals: 40, MaxArity: 3, MaxReq: 9}, true)
	sol := enginePlacement(t, solver.MultipleGreedy, in)
	cfg := Config{Steps: 50, Jitter: 0.3, Seed: 7}
	want, err := Run(in, core.Multiple, sol, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 4; run++ {
		got, err := Run(in, core.Multiple, sol, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: metrics %+v, first run %+v", run, got, want)
		}
	}
}
