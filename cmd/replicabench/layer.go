package main

import (
	"time"

	"replicatree/internal/decomp"
)

// stageNames lists every layer call the traced replay records, roughly
// in the order a request meets them. Each is reported as
// <stage>_share: its total self time over the total handler time, so
// the stages of the handler's path plus service.unaccounted_share sum
// to 1. core.validate, tree.flatten, core.lower_bound and
// tree.partition are probes: separate calls timing a step the handler
// performs inside another stage (decode, solve), so their shares
// overlap that stage's instead of adding to the sum.
var stageNames = []string{
	"service.decode", "core.validate", "core.hash", "service.cache", "tree.flatten",
	"solver.solve.auto", "solver.solve.lp-round", "solver.solve.single-gen",
	"solver.solve.multiple-greedy", "solver.solve.multiple-best",
	"core.lower_bound", "solver.clone", "core.verify", "solver.certify", "service.encode",
	"delta.apply", "delta.resolve", "delta.snapshot",
	"fleet.route_key", "fleet.ring",
	"core.read_chunked", "core.flat_hash", "tree.partition", "decomp.solve", "core.flat_verify",
}

// layerAcc accumulates a traced run's per-operation totals.
type layerAcc struct {
	ops                 int
	handlerNS           int64 // real handler (or huge-tree pipeline) wall time
	allocs, allocBytes  uint64
	reqBytes, respBytes int64

	churnAdded, resolves int
	gapSum               float64 // over the answers served
	answers              int

	decompRuns int
	decomp     decomp.Result // summed counters

	gcPerKop, allocMBPerKop float64
}

// counters snapshots the stack-level effectiveness counters the
// per-layer metrics report as deltas over the replay.
type counters struct {
	hits, misses                    uint64 // client-observed cache lookups
	t1hits, t2hits                  uint64
	gossipSent, gossipDrop, failovs uint64
}

func readCounters(st *stack) counters {
	var c counters
	if st.srv != nil {
		cs := st.srv.CacheStats()
		c.hits, c.misses = cs.Hits, cs.Misses
	}
	if st.fl != nil {
		snap := st.fl.Snapshot()
		t := snap.Totals
		c.hits, c.misses = t.Tier1Hits+t.Tier2Hits, t.Tier1Misses-t.Tier2Hits
		c.t1hits, c.t2hits = t.Tier1Hits, t.Tier2Hits
		c.gossipSent, c.gossipDrop, c.failovs = snap.Gossip.Sent, snap.Gossip.Dropped, snap.Failovers
	}
	return c
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// layerMetrics turns a traced run into the per-layer metrics.
func layerMetrics(acc *layerAcc, spans []span, c0, c1 counters) metricSet {
	self := selfTimes(spans)
	byName := make(map[string]int64)
	var staged int64 // time covered by the op roots' children: the replayed handler path
	for i := range spans {
		s := &spans[i]
		if s.Parent < 0 && s.Name == "op" {
			staged += s.dur() - self[i]
			continue
		}
		byName[s.Name] += self[i]
	}
	handler := float64(acc.handlerNS)
	ops := float64(acc.ops)
	m := metricSet{}
	m.set("op.wall_us", "us", handler/ops/float64(time.Microsecond))
	m.set("op.allocs", "count", float64(acc.allocs)/ops)
	m.set("op.alloc_kb", "KB", float64(acc.allocBytes)/ops/1024)
	m.set("io.req_kb", "KB", float64(acc.reqBytes)/ops/1024)
	m.set("io.resp_kb", "KB", float64(acc.respBytes)/ops/1024)
	m.set("runtime.gc_per_kop", "count", acc.gcPerKop)
	m.set("runtime.alloc_mb_per_kop", "MB", acc.allocMBPerKop)
	for _, st := range stageNames {
		m.set(st+"_share", "share", float64(byName[st])/handler)
	}
	m.set("service.unaccounted_share", "share", 1-float64(staged)/handler)
	m.set("trace.overhead_share", "share", float64(spanCost())*float64(len(spans))/handler)

	lookups := (c1.hits - c0.hits) + (c1.misses - c0.misses)
	m.set("service.cache_hit_ratio", "ratio", ratio(c1.hits-c0.hits, lookups))
	m.set("fleet.tier1_hit_ratio", "ratio", ratio(c1.t1hits-c0.t1hits, lookups))
	m.set("fleet.tier2_hits", "count", float64(c1.t2hits-c0.t2hits))
	m.set("fleet.gossip_sent", "count", float64(c1.gossipSent-c0.gossipSent))
	m.set("fleet.gossip_dropped", "count", float64(c1.gossipDrop-c0.gossipDrop))
	m.set("fleet.failovers", "count", float64(c1.failovs-c0.failovs))
	m.set("delta.churn_added_mean", "count", ratio(uint64(acc.churnAdded), uint64(acc.resolves)))
	m.set("solver.gap_mean", "ratio", acc.gapSum/float64(max(acc.answers, 1)))

	runs := uint64(acc.decompRuns)
	m.set("decomp.pieces", "count", ratio(uint64(acc.decomp.Pieces), runs))
	m.set("decomp.rounds", "count", ratio(uint64(acc.decomp.Rounds), runs))
	m.set("decomp.moved", "count", ratio(uint64(acc.decomp.Moved), runs))
	m.set("decomp.merged", "count", ratio(uint64(acc.decomp.Merged), runs))
	return m
}
