package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"replicatree/internal/binpack"
	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/multiple"
	"replicatree/internal/single"
	"replicatree/internal/solver"
	"replicatree/internal/stats"
)

// E9PolicyComparison quantifies the introduction's motivation: how
// many servers each algorithm/policy needs on the same workloads, how
// far each sits from the unconstrained bin-packing bound, and what the
// PushUp post-pass (the conclusion's future-work idea) buys on top of
// single-nod. All means over random binary NoD instances, where every
// algorithm in the repository applies. Every algorithmic row is a
// registry sweep over the shared instance set, fanned out by
// solver.Batch; the bin-packing and volume baselines stay inline.
func E9PolicyComparison(scale Scale, seed int64) *Result {
	rng := rand.New(rand.NewSource(seed + 9))
	trials := 40
	if scale == Full {
		trials = 200
	}
	tab := stats.NewTable("mean replica counts over random binary NoD instances",
		"algorithm", "policy", "mean |R|", "mean |R|/opt(pol)", "optimal-rate")

	type row struct {
		name   string
		solver string // empty for the inline baselines
		policy core.Policy
		sizes  []float64
		ratios []float64
		hits   int
	}
	rows := []*row{
		{name: "single-gen (Alg 1)", solver: solver.SingleGen, policy: core.Single},
		{name: "single-nod (Alg 2)", solver: solver.SingleNoD, policy: core.Single},
		{name: "single-nod + push-up", solver: solver.SinglePushUp, policy: core.Single},
		{name: "exact Single (B&B)", solver: solver.ExactSingle, policy: core.Single},
		{name: "multiple-bin (Alg 3)", solver: solver.MultipleBin, policy: core.Multiple},
		{name: "exact Multiple (B&B)", solver: solver.ExactMultiple, policy: core.Multiple},
		{name: "bin-packing FFD (no tree)", policy: core.Multiple},
		{name: "volume bound ⌈Σr/W⌉", policy: core.Multiple},
	}
	ok := true
	var savings []float64

	ins := make([]*core.Instance, trials)
	for i := range ins {
		ins[i] = gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    1 + rng.Intn(4),
			MaxArity:     2,
			MaxDist:      3,
			MaxReq:       9,
			ExtraClients: rng.Intn(3),
		}, false)
	}
	sweeps := make(map[string][]solver.Result, len(rows))
	for _, r := range rows {
		if r.solver != "" && sweeps[r.solver] == nil {
			sweeps[r.solver] = solveAll(r.solver, ins)
		}
	}
	optSIdx, optMIdx := sweeps[solver.ExactSingle], sweeps[solver.ExactMultiple]

	for i := 0; i < trials; i++ {
		in := ins[i]
		counts := make([]int, len(rows))
		failed := false
		for k, r := range rows {
			if r.solver == "" {
				continue
			}
			res := sweeps[r.solver][i]
			if res.Err != nil {
				failed = true
				break
			}
			counts[k] = res.Report.Solution.NumReplicas()
		}
		if failed {
			ok = false
			continue
		}
		optS, optM := optSIdx[i].Report.Solution, optMIdx[i].Report.Solution
		var items []int64
		for _, c := range in.Tree.Clients() {
			if r := in.Tree.Requests(c); r > 0 {
				items = append(items, r)
			}
		}
		ffd, err := binpack.FirstFitDecreasing(items, in.W)
		if err != nil {
			ok = false
			continue
		}
		counts[6] = ffd.NumBins()
		counts[7] = core.VolumeLowerBound(in)

		for k, r := range rows {
			r.sizes = append(r.sizes, float64(counts[k]))
			opt := optS.NumReplicas()
			if r.policy == core.Multiple {
				opt = optM.NumReplicas()
			}
			if opt > 0 {
				r.ratios = append(r.ratios, float64(counts[k])/float64(opt))
			}
			if counts[k] == opt {
				r.hits++
			}
		}
		if optS.NumReplicas() > 0 {
			savings = append(savings, float64(optS.NumReplicas()-optM.NumReplicas())/float64(optS.NumReplicas()))
		}
	}
	for _, r := range rows {
		pol := "Single"
		if r.policy == core.Multiple {
			pol = "Multiple"
		}
		tab.AddRow(r.name, pol, stats.Mean(r.sizes), stats.Mean(r.ratios),
			float64(r.hits)/float64(len(r.sizes)))
	}
	return &Result{
		ID:    "E9",
		Title: "Single vs Multiple policies, bin-packing baseline and push-up ablation",
		Table: tab,
		Notes: []string{
			"bin-packing rows ignore tree/distance structure: they lower-bound every placement",
			"mean optimal-savings of Multiple over Single (replicas saved / Single optimum): " +
				formatPct(stats.Mean(savings)),
		},
		OK: ok,
	}
}

func formatPct(x float64) string {
	return fmt.Sprintf("%.2f%%", 100*x)
}

// E10Scaling measures the runtime-growth claims: single-gen O(Δ·|T|),
// single-nod O((Δ log Δ + |C|)·|T|), multiple-bin O(|T|²). Caterpillar
// trees make the growth shapes visible: doubling |T| should roughly
// double the linear algorithms and quadruple multiple-bin at the
// worst case.
func E10Scaling(scale Scale, seed int64) *Result {
	rng := rand.New(rand.NewSource(seed + 10))
	sizes := []int{100, 200, 400}
	if scale == Full {
		sizes = []int{200, 400, 800, 1600}
	}
	tab := stats.NewTable("runtime (µs) on caterpillar instances of |T| nodes",
		"|T|", "single-gen", "single-nod", "multiple-bin", "greedy(Δ=4)")
	ok := true
	for _, n := range sizes {
		cat := gen.Caterpillar(rng, n/2, 3, 9)
		w := cat.MaxRequests() + 20
		binIn := &core.Instance{Tree: cat, W: w, DMax: core.NoDistance}
		wide := gen.RandomTree(rng, gen.TreeConfig{Internals: n / 2, MaxArity: 4, MaxDist: 3, MaxReq: 9})
		wideIn := &core.Instance{Tree: wide, W: wide.MaxRequests() + 20, DMax: core.NoDistance}

		tg := timeIt(func() error { _, err := single.Gen(binIn); return err })
		tn := timeIt(func() error { _, err := single.NoD(binIn); return err })
		tb := timeIt(func() error { _, err := multiple.Bin(binIn); return err })
		tw := timeIt(func() error { _, err := multiple.Greedy(wideIn); return err })
		if tg < 0 || tn < 0 || tb < 0 || tw < 0 {
			ok = false
		}
		tab.AddRow(binIn.Tree.Len(), tg, tn, tb, tw)
	}
	return &Result{
		ID:    "E10",
		Title: "Complexity claims — runtime scaling of the three algorithms",
		Table: tab,
		Notes: []string{
			"paper: single-gen O(Δ|T|), single-nod O((Δ log Δ + |C|)|T|), multiple-bin O(|T|²)",
			"see also the Benchmark* targets in bench_test.go for allocation profiles",
		},
		OK: ok,
	}
}

// timeIt returns the best-of-3 wall time in microseconds, or -1 on
// error.
func timeIt(fn func() error) int64 {
	best := int64(1 << 62)
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return -1
		}
		if d := time.Since(start).Microseconds(); d < best {
			best = d
		}
	}
	return best
}
