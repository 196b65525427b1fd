// Package sim is a discrete-time request-routing simulator. It replays
// a computed placement against a request stream: every time step each
// client emits (a possibly jittered amount of) its nominal request
// rate, the requests are routed to the servers chosen by the solution
// proportionally to the planned assignment, and the simulator records
// latencies (path distances) and per-server loads. It validates the
// static placement model dynamically — the paper's W is a per-time-unit
// capacity and dmax a latency guarantee, which is exactly what the
// simulator measures.
package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"replicatree/internal/core"
	"replicatree/internal/tree"
)

// Config controls a simulation run.
type Config struct {
	// Steps is the number of simulated time units (default 100).
	Steps int
	// Jitter is the relative amplitude of per-step demand noise in
	// [0, 1): at each step a client emits a uniform amount in
	// [ri·(1−Jitter), ri·(1+Jitter)], rounded. 0 means the exact
	// nominal rate.
	Jitter float64
	// Seed seeds the demand noise.
	Seed int64
}

func (c Config) norm() Config {
	if c.Steps <= 0 {
		c.Steps = 100
	}
	if c.Jitter < 0 {
		c.Jitter = 0
	}
	if c.Jitter >= 1 {
		c.Jitter = 0.99
	}
	return c
}

// Metrics aggregates a simulation run.
type Metrics struct {
	Steps        int
	TotalEmitted int64
	TotalServed  int64
	// MaxLatency is the largest client→server distance observed.
	MaxLatency int64
	// MeanLatency is the request-weighted average distance.
	MeanLatency float64
	// PeakLoad maps each server to its highest per-step load.
	PeakLoad map[tree.NodeID]int64
	// OverloadSteps counts (server, step) pairs where the load
	// exceeded W — possible only with Jitter > 0.
	OverloadSteps int
	// MaxOverload is the largest load − W observed (0 if never
	// overloaded).
	MaxOverload int64
}

// route is a precomputed per-client routing plan.
type route struct {
	client  tree.NodeID
	rate    int64
	servers []tree.NodeID
	amounts []int64
	dists   []int64
}

// Run replays the solution. The solution must be feasible for the
// instance (Run verifies it first); the returned metrics then describe
// the dynamic behaviour under the configured demand noise.
func Run(in *core.Instance, pol core.Policy, sol *core.Solution, cfg Config) (*Metrics, error) {
	if err := core.Verify(in, pol, sol); err != nil {
		return nil, fmt.Errorf("sim: solution rejected: %w", err)
	}
	cfg = cfg.norm()
	t := in.Tree

	byClient := make(map[tree.NodeID]*route)
	var plans []*route
	for _, a := range sol.Assignments {
		p := byClient[a.Client]
		if p == nil {
			p = &route{client: a.Client, rate: t.Requests(a.Client)}
			byClient[a.Client] = p
			plans = append(plans, p)
		}
		p.servers = append(p.servers, a.Server)
		p.amounts = append(p.amounts, a.Amount)
		p.dists = append(p.dists, t.DistanceUp(a.Client, a.Server))
	}
	// Clients draw their demand noise in ID order, so a seed fixes
	// the run.
	slices.SortFunc(plans, func(a, b *route) int { return cmp.Compare(a.client, b.client) })

	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Metrics{Steps: cfg.Steps, PeakLoad: make(map[tree.NodeID]int64, len(sol.Replicas))}
	for _, r := range sol.Replicas {
		m.PeakLoad[r] = 0
	}
	var latencySum float64
	load := make(map[tree.NodeID]int64, len(sol.Replicas))

	for step := 0; step < cfg.Steps; step++ {
		for k := range load {
			load[k] = 0
		}
		for _, p := range plans {
			demand := p.rate
			if cfg.Jitter > 0 {
				lo := float64(p.rate) * (1 - cfg.Jitter)
				hi := float64(p.rate) * (1 + cfg.Jitter)
				demand = int64(lo + rng.Float64()*(hi-lo) + 0.5)
			}
			m.TotalEmitted += demand
			// Route proportionally to the plan, remainder to the
			// last server (closest split preserving totals).
			var sent int64
			for i := range p.servers {
				amt := p.amounts[i]
				if cfg.Jitter > 0 {
					amt = demand * p.amounts[i] / p.rate
				}
				if i == len(p.servers)-1 {
					amt = demand - sent
				}
				if amt <= 0 {
					continue
				}
				sent += amt
				load[p.servers[i]] += amt
				m.TotalServed += amt
				latencySum += float64(amt) * float64(p.dists[i])
				if p.dists[i] > m.MaxLatency {
					m.MaxLatency = p.dists[i]
				}
			}
		}
		for srv, l := range load {
			if l > m.PeakLoad[srv] {
				m.PeakLoad[srv] = l
			}
			if l > in.W {
				m.OverloadSteps++
				if l-in.W > m.MaxOverload {
					m.MaxOverload = l - in.W
				}
			}
		}
	}
	if m.TotalServed > 0 {
		m.MeanLatency = latencySum / float64(m.TotalServed)
	}
	return m, nil
}
