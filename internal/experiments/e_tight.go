package experiments

import (
	"fmt"

	"replicatree/internal/gen"
	"replicatree/internal/solver"
	"replicatree/internal/stats"
)

// E3TightSingleGen reproduces Fig. 3 / Theorem 3: on the family Im,
// single-gen places m(Δ+1) replicas against an optimum of m+1, so its
// ratio converges to Δ+1 — the approximation factor is tight.
func E3TightSingleGen(scale Scale) *Result {
	ms := []int{1, 2, 4, 8}
	deltas := []int{2, 3}
	if scale == Full {
		ms = []int{1, 2, 4, 8, 16, 32}
		deltas = []int{2, 3, 4}
	}
	tab := stats.NewTable("Im family: single-gen replica count vs optimum",
		"Δ", "m", "algo (paper m(Δ+1))", "opt (paper m+1)", "ratio", "limit Δ+1", "holds")
	ok := true
	for _, d := range deltas {
		for _, m := range ms {
			res, err := gen.GadgetIm(m, d)
			if err != nil {
				ok = false
				tab.AddRow(d, m, "-", "-", "-", "-", err.Error())
				continue
			}
			sol, err := solveOne(solver.SingleGen, res.Instance)
			if err != nil {
				ok = false
				tab.AddRow(d, m, "-", "-", "-", "-", err.Error())
				continue
			}
			algo := sol.NumReplicas()
			ratio := float64(algo) / float64(res.OptReplicas)
			holds := algo == res.AlgoReplicas
			if !holds {
				ok = false
			}
			tab.AddRow(d, m, fmt.Sprintf("%d (%d)", algo, res.AlgoReplicas),
				res.OptReplicas, ratio, d+1, holds)
		}
	}
	return &Result{
		ID:    "E3",
		Title: "Theorem 3 / Fig. 3 — tightness of the (Δ+1)-approximation (single-gen)",
		Table: tab,
		Notes: []string{
			"ratio(m) = m(Δ+1)/(m+1) → Δ+1 as m → ∞",
			"optimum m+1 cross-checked against the exact solver in the test suite for small m",
		},
		OK: ok,
	}
}

// E5TightSingleNoD reproduces Fig. 4 / Theorem 4: on the W = K family,
// single-nod places 2K replicas against an optimum of K+1, so its
// ratio converges to 2.
func E5TightSingleNoD(scale Scale) *Result {
	ks := []int{1, 2, 4, 8}
	if scale == Full {
		ks = []int{1, 2, 4, 8, 16, 32}
	}
	tab := stats.NewTable("Fig. 4 family: single-nod replica count vs optimum",
		"K", "algo (paper 2K)", "opt (paper K+1)", "ratio", "limit 2", "holds")
	ok := true
	for _, k := range ks {
		res, err := gen.GadgetFig4(k)
		if err != nil {
			ok = false
			tab.AddRow(k, "-", "-", "-", "-", err.Error())
			continue
		}
		sol, err := solveOne(solver.SingleNoD, res.Instance)
		if err != nil {
			ok = false
			tab.AddRow(k, "-", "-", "-", "-", err.Error())
			continue
		}
		algo := sol.NumReplicas()
		ratio := float64(algo) / float64(res.OptReplicas)
		holds := algo == res.AlgoReplicas
		if !holds {
			ok = false
		}
		tab.AddRow(k, fmt.Sprintf("%d (%d)", algo, res.AlgoReplicas),
			res.OptReplicas, ratio, 2, holds)
	}
	return &Result{
		ID:    "E5",
		Title: "Theorem 4 / Fig. 4 — tightness of the 2-approximation (single-nod)",
		Table: tab,
		Notes: []string{"ratio(K) = 2K/(K+1) → 2 as K → ∞"},
		OK:    ok,
	}
}
