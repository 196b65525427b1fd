package experiments

import (
	"fmt"
	"math/rand"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/lp"
	"replicatree/internal/multiple"
	"replicatree/internal/sim"
	"replicatree/internal/solver"
	"replicatree/internal/stats"
)

// E11LowerBounds compares the repository's three polynomial lower
// bounds against exact optima (extension beyond the paper, which only
// uses the volume argument ⌈Σr/W⌉ inside proofs): the volume bound,
// the combinatorial distance-aware bound (core.LowerBound), the LP
// relaxation (⌈LP⌉) and — on NoD instances — the binarized Algorithm 3
// bound.
func E11LowerBounds(scale Scale, seed int64) *Result {
	rng := rand.New(rand.NewSource(seed + 11))
	trials := 40
	if scale == Full {
		trials = 150
	}
	tab := stats.NewTable("mean (bound / optimum) on random Multiple instances — higher is tighter",
		"regime", "trials", "volume", "combinatorial", "LP ⌈relax⌉", "binarized Alg3", "all ≤ opt")
	ok := true
	for _, withD := range []bool{false, true} {
		var vol, comb, lprel, binz []float64
		valid := true
		n := 0
		ins := make([]*core.Instance, trials)
		for i := range ins {
			ins[i] = gen.RandomInstance(rng, gen.TreeConfig{
				Internals:    1 + rng.Intn(4),
				MaxArity:     3 + rng.Intn(2),
				MaxDist:      3,
				MaxReq:       9,
				ExtraClients: rng.Intn(3),
			}, withD)
		}
		opts := solveAll(solver.ExactMultiple, ins)
		for i := 0; i < trials; i++ {
			in := ins[i]
			if opts[i].Err != nil {
				ok = false
				continue
			}
			o := float64(opts[i].Report.Solution.NumReplicas())
			if o == 0 {
				continue
			}
			n++
			v := core.VolumeLowerBound(in)
			c := core.LowerBound(in)
			l, err := lp.LowerBound(in)
			if err != nil {
				ok = false
				continue
			}
			if float64(v) > o || float64(c) > o || float64(l) > o {
				valid = false
			}
			vol = append(vol, float64(v)/o)
			comb = append(comb, float64(c)/o)
			lprel = append(lprel, float64(l)/o)
			if !withD {
				bz, err := multiple.BinarizedLowerBound(in)
				if err != nil {
					ok = false
					continue
				}
				if float64(bz) > o {
					valid = false
				}
				binz = append(binz, float64(bz)/o)
			}
		}
		if !valid {
			ok = false
		}
		bzCell := "n/a (NoD only)"
		if !withD {
			bzCell = formatMean(binz)
		}
		tab.AddRow(distLabel(withD), n, stats.Mean(vol), stats.Mean(comb),
			stats.Mean(lprel), bzCell, valid)
	}
	return &Result{
		ID:    "E11",
		Title: "Extension — lower-bound quality (volume vs combinatorial vs LP vs binarized)",
		Table: tab,
		Notes: []string{
			"all bounds verified ≤ the exact optimum on every instance",
			"the binarized bound applies to NoD only (it relies on Theorem 6 optimality, see E7)",
		},
		OK: ok,
	}
}

func formatMean(xs []float64) string {
	return fmt.Sprintf("%.3f", stats.Mean(xs))
}

// E12FaultTolerance injects replica failures into computed placements
// and measures degradation — the fault-tolerance motivation of the
// paper's introduction made quantitative. Two deployment styles are
// compared on identical instances: the tight plan (Algorithm 3 at the
// true capacity W) and a headroom plan (planned as if capacity were
// 70% of W, then operated at the full W), which buys extra replicas
// whose spare capacity absorbs failovers.
func E12FaultTolerance(scale Scale, seed int64) *Result {
	rng := rand.New(rand.NewSource(seed + 12))
	trials := 25
	if scale == Full {
		trials = 100
	}
	tab := stats.NewTable("single-replica failure: degradation by deployment style",
		"plan", "mean replicas", "unserved frac", "rerouted frac", "degraded trials")
	ok := true

	type agg struct {
		replicas, unserved, rerouted []float64
		degraded                     int
	}
	tight, headroom := &agg{}, &agg{}

	// Generate both deployment plans up front, then solve them all in
	// one Batch fan-out: the tight plan at the true W and the headroom
	// plan at 70% of W (but never below the largest client), operated
	// at the true W.
	ins := make([]*core.Instance, trials)
	headIns := make([]*core.Instance, trials)
	for i := range ins {
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals:    2 + rng.Intn(5),
			MaxArity:     2,
			MaxDist:      3,
			MaxReq:       9,
			ExtraClients: 1 + rng.Intn(3),
		}, false)
		ins[i] = in
		plannedW := in.W * 7 / 10
		if m := in.Tree.MaxRequests(); plannedW < m {
			plannedW = m
		}
		headIns[i] = &core.Instance{Tree: in.Tree, W: plannedW, DMax: in.DMax}
	}
	tightRes := solveAll(solver.MultipleBest, ins)
	headRes := solveAll(solver.MultipleBest, headIns)

	for i := 0; i < trials; i++ {
		in := ins[i]
		if tightRes[i].Err != nil || headRes[i].Err != nil {
			ok = false
			continue
		}
		tightSol, headSol := tightRes[i].Report.Solution, headRes[i].Report.Solution

		for _, pc := range []struct {
			sol *core.Solution
			a   *agg
		}{{tightSol, tight}, {headSol, headroom}} {
			if pc.sol.NumReplicas() == 0 {
				continue
			}
			loads := pc.sol.Loads()
			victim := pc.sol.Replicas[0]
			for _, r := range pc.sol.Replicas {
				if loads[r] > loads[victim] {
					victim = r
				}
			}
			fm, err := sim.RunWithFailures(in, core.Multiple, pc.sol,
				sim.Config{Steps: 20}, []sim.Failure{{Server: victim, Step: 10}})
			if err != nil {
				ok = false
				continue
			}
			pc.a.replicas = append(pc.a.replicas, float64(pc.sol.NumReplicas()))
			pc.a.unserved = append(pc.a.unserved, float64(fm.Unserved)/float64(fm.TotalEmitted))
			pc.a.rerouted = append(pc.a.rerouted, float64(fm.Rerouted)/float64(fm.TotalEmitted))
			if fm.StepsDegraded > 0 {
				pc.a.degraded++
			}
		}
	}
	tab.AddRow("tight (Alg 3 at W)", stats.Mean(tight.replicas), stats.Mean(tight.unserved),
		stats.Mean(tight.rerouted), tight.degraded)
	tab.AddRow("headroom (planned at 0.7W)", stats.Mean(headroom.replicas), stats.Mean(headroom.unserved),
		stats.Mean(headroom.rerouted), headroom.degraded)
	// Gate: headroom must strand no more demand than the tight plan.
	if stats.Mean(headroom.unserved) > stats.Mean(tight.unserved)+1e-9 {
		ok = false
	}
	return &Result{
		ID:    "E12",
		Title: "Extension — fault tolerance of placements under replica failure",
		Table: tab,
		Notes: []string{
			"failure model: the most loaded replica goes down halfway through a 20-step run",
			"re-homing: surviving path replicas, nearest first, within residual capacity (Multiple policy)",
			"planning at reduced capacity buys spare replicas that absorb failovers",
		},
		OK: ok,
	}
}
