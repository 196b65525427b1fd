package experiments

import (
	"fmt"
	"math/rand"

	"replicatree/internal/core"
	"replicatree/internal/exact"
	"replicatree/internal/gen"
	"replicatree/internal/solver"
	"replicatree/internal/stats"
	"replicatree/internal/tree"
)

// E1NPGadgetSingle reproduces Theorem 1 / Fig. 1: instance I2 built
// from a 3-Partition instance has an m-server Single solution iff the
// 3-Partition instance is YES. The exact solver materialises the
// optimum; the brute-force decider labels the partition instance.
func E1NPGadgetSingle(scale Scale, seed int64) *Result {
	rng := rand.New(rand.NewSource(seed))
	tab := stats.NewTable("I2 gadget: Single-NoD-Bin optimum vs 3-Partition answer",
		"m", "B", "instance", "3-part", "K=m", "opt", "opt≤K", "holds")
	ok := true

	type trial struct {
		as    []int64
		B     int64
		label string
	}
	var trials []trial
	B := int64(16)
	// Hand-built YES/NO pairs plus random YES instances.
	trials = append(trials,
		trial{[]int64{5, 5, 6, 5, 5, 6}, B, "hand-yes"},
		trial{[]int64{5, 5, 5, 5, 5, 7}, B, "hand-no"},
		trial{[]int64{5, 6, 5, 5, 6, 5, 5, 5, 6}, 16, "hand-yes-m3"},
	)
	n := 2
	if scale == Full {
		n = 6
	}
	for i := 0; i < n; i++ {
		m := 2
		if scale == Full && i%2 == 1 {
			m = 3
		}
		trials = append(trials, trial{gen.ThreePartitionYes(rng, m, B), B, fmt.Sprintf("rand-yes-%d", i)})
	}

	for _, tr := range trials {
		in, K, err := gen.GadgetI2(tr.as, tr.B)
		if err != nil {
			ok = false
			tab.AddRow("-", tr.B, tr.label, "err", "-", "-", "-", err.Error())
			continue
		}
		yes := gen.ThreePartitionExists(tr.as, tr.B)
		sol, err := solveOne(solver.ExactSingle, in)
		if err != nil {
			ok = false
			tab.AddRow(K, tr.B, tr.label, yes, K, "-", "-", err.Error())
			continue
		}
		solvable := sol.NumReplicas() <= K
		holds := solvable == yes
		if !holds {
			ok = false
		}
		tab.AddRow(K, tr.B, tr.label, yes, K, sol.NumReplicas(), solvable, holds)
	}
	return &Result{
		ID:    "E1",
		Title: "Theorem 1 / Fig. 1 — NP-hardness gadget for Single-NoD-Bin (3-Partition)",
		Table: tab,
		Notes: []string{"reduction verified computationally: opt ≤ m ⇔ 3-Partition YES"},
		OK:    ok,
	}
}

// E2InapproxGadget reproduces Theorem 2 / Fig. 2: on instance I4 the
// optimum is 2 iff 2-Partition is YES (3 otherwise), so any algorithm
// below ratio 3/2 would decide 2-Partition. The table also shows what
// the two approximation algorithms actually return on these gaps.
func E2InapproxGadget(scale Scale, seed int64) *Result {
	rng := rand.New(rand.NewSource(seed + 1))
	tab := stats.NewTable("I4 gadget: Single-NoD-Bin optimum vs 2-Partition answer",
		"instance", "2-part", "opt", "ratio-wall", "holds")
	ok := true

	type trial struct {
		as    []int64
		label string
	}
	trials := []trial{
		{[]int64{3, 3, 2, 2}, "hand-yes"},
		{[]int64{3, 3, 3, 1}, "hand-no"},
	}
	n := 2
	if scale == Full {
		n = 5
	}
	for i := 0; i < n; i++ {
		trials = append(trials, trial{gen.TwoPartitionYes(rng, 2+rng.Intn(3), 9), fmt.Sprintf("rand-yes-%d", i)})
	}

	for _, tr := range trials {
		in, err := gen.GadgetI4(tr.as)
		if err != nil {
			ok = false
			tab.AddRow(tr.label, "err", "-", "-", err.Error())
			continue
		}
		yes := gen.TwoPartitionExists(tr.as)
		sol, err := solveOne(solver.ExactSingle, in)
		if err != nil {
			ok = false
			tab.AddRow(tr.label, yes, "-", "-", err.Error())
			continue
		}
		opt := sol.NumReplicas()
		want := 3
		if yes {
			want = 2
		}
		holds := opt == want
		if !holds {
			ok = false
		}
		// The "wall": distinguishing 2 from 3 requires ratio < 3/2.
		tab.AddRow(tr.label, yes, opt, "3/2", holds)
	}
	return &Result{
		ID:    "E2",
		Title: "Theorem 2 / Fig. 2 — no (3/2−ε)-approximation for Single-NoD-Bin (2-Partition)",
		Table: tab,
		Notes: []string{"opt = 2 on YES instances and 3 on NO instances: a (3/2−ε)-approximation would separate them"},
		OK:    ok,
	}
}

// E6NPGadgetMultiple reproduces Theorem 5 / Fig. 5: instance I6.
// Forward direction: the proof's explicit 4m-replica solution is
// feasible for every certificate. Converse (structured): among replica
// sets made of the 3m forced nodes plus m of n1..n2m, feasibility
// holds exactly for certificate index sets.
func E6NPGadgetMultiple(scale Scale, seed int64) *Result {
	tab := stats.NewTable("I6 gadget: Multiple-Bin with a client exceeding W",
		"m", "as", "certificate", "K=4m", "forward-ok", "structured: feasible/certificates", "holds")
	ok := true

	type trial struct {
		as []int64
		I  []int
	}
	trials := []trial{
		{[]int64{1, 1, 1, 1}, []int{1, 2}},
		{[]int64{1, 1, 2, 2, 3, 3}, []int{1, 3, 5}},
	}
	if scale == Full {
		trials = append(trials,
			trial{[]int64{2, 2, 2, 2, 3, 3}, []int{1, 2, 5}},
			trial{[]int64{1, 2, 2, 2, 2, 3, 3, 3}, []int{1, 4, 6, 8}},
		)
	}

	for _, tr := range trials {
		m := len(tr.as) / 2
		in, K, err := gen.GadgetI6(tr.as)
		if err != nil {
			ok = false
			tab.AddRow(m, fmt.Sprint(tr.as), fmt.Sprint(tr.I), "-", "-", "-", err.Error())
			continue
		}
		sol, err := gen.I6Solution(in, tr.as, tr.I)
		fwd := err == nil && sol.NumReplicas() == K && core.Verify(in, core.Multiple, sol) == nil

		feasible, certs, total := structuredCounts(in, tr.as, m)
		holds := fwd && feasible == certs
		if !holds {
			ok = false
		}
		tab.AddRow(m, fmt.Sprint(tr.as), fmt.Sprint(tr.I), K, fwd,
			fmt.Sprintf("%d/%d of %d subsets", feasible, certs, total), holds)
	}
	return &Result{
		ID:    "E6",
		Title: "Theorem 5 / Fig. 5 — NP-hardness of Multiple-Bin with ri > W (2-Partition-Equal)",
		Table: tab,
		Notes: []string{
			"forward: the proof's explicit 4m-replica solution verifies",
			"structured converse: with the 3m forced replicas fixed, an m-subset of n1..n2m is feasible iff it is a partition certificate",
		},
		OK: ok,
	}
}

// structuredCounts enumerates all m-subsets of n1..n2m on top of the
// forced replica set and compares max-flow feasibility with the
// certificate property Σ = S/2.
func structuredCounts(in *core.Instance, as []int64, m int) (feasible, certificates, total int) {
	var S int64
	for _, a := range as {
		S += a
	}
	forced := []tree.NodeID{gen.FindLabel(in.Tree, "big")}
	for j := 2*m + 1; j <= 5*m-1; j++ {
		forced = append(forced, gen.FindLabel(in.Tree, fmt.Sprintf("n%d", j)))
	}
	idx := make([]int, 0, m)
	var rec func(start int)
	rec = func(start int) {
		if len(idx) == m {
			total++
			var sum int64
			R := append([]tree.NodeID{}, forced...)
			for _, i := range idx {
				sum += as[i-1]
				R = append(R, gen.FindLabel(in.Tree, fmt.Sprintf("n%d", i)))
			}
			if sum == S/2 {
				certificates++
			}
			if exact.MultipleFeasible(in, R) {
				feasible++
			}
			return
		}
		for i := start; i <= 2*m; i++ {
			idx = append(idx, i)
			rec(i + 1)
			idx = idx[:len(idx)-1]
		}
	}
	rec(1)
	return feasible, certificates, total
}
