package experiments

import (
	"fmt"
	"math/rand"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/solver"
	"replicatree/internal/stats"
)

// E4NoDRatio reproduces Corollary 1: without distance constraints,
// single-gen is a Δ-approximation. We measure its empirical ratio
// against the exact optimum on random instances grouped by arity.
// Instances are generated sequentially; the solves fan out over the
// solver.Batch worker pool.
func E4NoDRatio(scale Scale, seed int64) *Result {
	rng := rand.New(rand.NewSource(seed + 4))
	trials := 30
	if scale == Full {
		trials = 120
	}
	tab := stats.NewTable("single-gen on random Single-NoD instances",
		"Δ", "trials", "mean ratio", "max ratio", "bound Δ", "holds")
	ok := true
	for _, arity := range []int{2, 3, 4} {
		ins := make([]*core.Instance, trials)
		for i := range ins {
			ins[i] = gen.RandomInstance(rng, gen.TreeConfig{
				Internals:    1 + rng.Intn(4),
				MaxArity:     arity,
				MaxDist:      3,
				MaxReq:       9,
				ExtraClients: rng.Intn(3),
			}, false)
		}
		sols := solveAll(solver.SingleGen, ins)
		opts := solveAll(solver.ExactSingle, ins)
		var ratios []float64
		for i := range ins {
			if sols[i].Err != nil || opts[i].Err != nil {
				ok = false
				continue
			}
			ratios = append(ratios,
				float64(sols[i].Report.Solution.NumReplicas())/float64(opts[i].Report.Solution.NumReplicas()))
		}
		holds := stats.Max(ratios) <= float64(arity)+1e-9
		if !holds {
			ok = false
		}
		tab.AddRow(arity, len(ratios), stats.Mean(ratios), stats.Max(ratios), arity, holds)
	}
	return &Result{
		ID:    "E4",
		Title: "Corollary 1 — single-gen is a Δ-approximation for Single-NoD",
		Table: tab,
		Notes: []string{"random trees; optimum from the exact branch-and-bound solver"},
		OK:    ok,
	}
}

// E7MultipleBinOptimal reproduces (and stress-tests) Theorem 6. It
// measures three variants on random binary instances with ri ≤ W:
// the faithful Algorithm 3 ("eager"), the Lazy variant that drops the
// eager capacity trigger, and Best (the better of the two). The NoD
// rows confirm Theorem 6's claim fully; the with-distance rows expose
// the reproduction finding: the eager rule admits rare off-by-one
// counterexamples (a pinned 8-node example lives in
// multiple/counterexample_test.go), which Lazy repairs — while Lazy
// alone loses elsewhere, so Best dominates both.
func E7MultipleBinOptimal(scale Scale, seed int64) *Result {
	rng := rand.New(rand.NewSource(seed + 7))
	trials := 60
	if scale == Full {
		trials = 300
	}
	tab := stats.NewTable("Algorithm 3 variants vs exact optimum on random binary instances",
		"variant", "distance", "trials", "optimal", "rate", "max gap")
	ok := true
	variants := []struct {
		name   string
		solver string
	}{
		{"eager (paper)", solver.MultipleBin},
		{"lazy", solver.MultipleLazy},
		{"best", solver.MultipleBest},
	}
	for _, withD := range []bool{false, true} {
		// One shared instance stream per distance regime so the
		// variants are compared on identical inputs.
		ins := make([]*core.Instance, trials)
		for i := range ins {
			ins[i] = gen.RandomInstance(rng, gen.TreeConfig{
				Internals:    1 + rng.Intn(5),
				MaxArity:     2,
				MaxDist:      3,
				MaxReq:       9,
				ExtraClients: rng.Intn(3),
			}, withD)
		}
		opts := make([]int, trials)
		for i, r := range solveAll(solver.ExactMultiple, ins) {
			if r.Err != nil {
				return &Result{ID: "E7", Title: "Theorem 6", Table: tab,
					Notes: []string{"exact solver failed: " + r.Err.Error()}}
			}
			opts[i] = r.Report.Solution.NumReplicas()
		}
		for _, v := range variants {
			optimal, maxGap := 0, 0
			for i, r := range solveAll(v.solver, ins) {
				if r.Err != nil {
					ok = false
					continue
				}
				gap := r.Report.Solution.NumReplicas() - opts[i]
				if gap == 0 {
					optimal++
				}
				if gap > maxGap {
					maxGap = gap
				}
			}
			rate := float64(optimal) / float64(trials)
			// Gate: Theorem 6 must hold exactly for the faithful
			// algorithm without distance constraints, and Best must
			// stay ≥ 99% optimal overall.
			if v.name == "eager (paper)" && !withD && optimal != trials {
				ok = false
			}
			if v.name == "best" && rate < 0.99 {
				ok = false
			}
			tab.AddRow(v.name, distLabel(withD), trials, optimal, rate, maxGap)
		}
	}
	return &Result{
		ID:    "E7",
		Title: "Theorem 6 — multiple-bin optimality (reproduction finding: eager rule not tight under dmax)",
		Table: tab,
		Notes: []string{
			"NoD rows: Theorem 6 reproduces exactly for the faithful algorithm",
			"with-distance rows: the faithful algorithm admits rare +1 counterexamples (pinned in the test suite); Best = min(eager, lazy) restores ≥99% optimality",
		},
		OK: ok,
	}
}

// E8GreedyMultiple measures the generalised Algorithm 3 on
// general-arity trees: the regime [3] proves polynomial (NoD) and the
// NP-hard distance-constrained regime, where it is a heuristic.
func E8GreedyMultiple(scale Scale, seed int64) *Result {
	rng := rand.New(rand.NewSource(seed + 8))
	trials := 60
	if scale == Full {
		trials = 250
	}
	tab := stats.NewTable("generalised greedy (arity > 2) vs exact optimum",
		"regime", "trials", "optimal", "rate", "mean gap", "max gap")
	ok := true
	worstGapNoD := 0
	for _, withD := range []bool{false, true} {
		ins := make([]*core.Instance, trials)
		for i := range ins {
			ins[i] = gen.RandomInstance(rng, gen.TreeConfig{
				Internals:    1 + rng.Intn(4),
				MaxArity:     3 + rng.Intn(2),
				MaxDist:      3,
				MaxReq:       9,
				ExtraClients: rng.Intn(4),
			}, withD)
		}
		sols := solveAll(solver.MultipleGreedy, ins)
		opts := solveAll(solver.ExactMultiple, ins)
		optimal := 0
		var gaps []float64
		for i := range ins {
			if sols[i].Err != nil || opts[i].Err != nil {
				ok = false
				continue
			}
			gap := sols[i].Report.Solution.NumReplicas() - opts[i].Report.Solution.NumReplicas()
			if gap == 0 {
				optimal++
			}
			if !withD && gap > worstGapNoD {
				worstGapNoD = gap
			}
			gaps = append(gaps, float64(gap))
		}
		tab.AddRow(distLabel(withD), trials, optimal,
			float64(optimal)/float64(trials), stats.Mean(gaps), stats.Max(gaps))
	}
	return &Result{
		ID:    "E8",
		Title: "Multiple on general trees — greedy generalisation of Algorithm 3 vs optimum",
		Table: tab,
		Notes: []string{
			"NoD row: the regime the paper cites as polynomially solvable [3]; the greedy matches the optimum empirically",
			"distance row: the general problem is NP-hard — any gap here is the price of polynomial time",
			fmt.Sprintf("worst NoD gap observed: %d", worstGapNoD),
		},
		OK: ok,
	}
}

func distLabel(withD bool) string {
	if withD {
		return "with-distance"
	}
	return "NoD"
}
