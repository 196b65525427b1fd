package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"replicatree/internal/cert"
	"replicatree/internal/core"
	"replicatree/internal/fleet"
	"replicatree/internal/gen"
	"replicatree/internal/service"
	"replicatree/internal/solver"
	"replicatree/internal/tree"
)

// rngFor derives an independent random stream from the run seed, a
// label (workload part or phase name) and an index, so every phase
// replays its own sequence and never continues another's.
func rngFor(seed int64, label string, i int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, label, i)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// instance generates a seeded binary tree with a distance bound:
// ~210 nodes, or ~2,074 when large. gen.RandomInstance would draw W and
// dmax at random, which swings the replica count, and with it a
// solve's work and the answer's size, by orders of magnitude from one
// instance to the next; fixing them as fractions of the tree's demand
// and depth (about sixteen servers' worth of demand, half the deepest
// root distance) keeps every seed's workload alike.
func instance(rng *rand.Rand, large bool) *core.Instance {
	internals := 150
	if large {
		internals = 1500
	}
	t := gen.RandomTree(rng, gen.TreeConfig{Internals: internals, MaxArity: 2, MaxDist: 4, MaxReq: 10})
	return &core.Instance{Tree: t, W: max(t.MaxRequests(), t.TotalRequests()/16), DMax: 2 * int64(t.Height())}
}

func solveBody(engine string, in *core.Instance, certificate bool) []byte {
	b, err := json.Marshal(service.SolveRequestV2{Solver: engine, Instance: in, Certificate: certificate})
	if err != nil {
		panic(err) // a generated instance always marshals
	}
	return b
}

func solveOp(body []byte) httpOp {
	return httpOp{method: "POST", path: "/v2/solve", body: body, pin: -1}
}

// Engines by instance size. auto and lp-round take about a second on
// ~2k-node instances, so they only ever see the small ones.
var (
	smallEngines = []string{solver.SingleGen, solver.MultipleGreedy, solver.MultipleBest, solver.Auto}
	largeEngines = []string{solver.SingleGen, solver.MultipleGreedy, solver.MultipleBest}
	coldSmall    = []string{solver.Auto, solver.LPRound}
)

// keyedWorkload is solve-hot and fleet-zipf: POST /v2/solve over a
// fixed keyspace. Key k is a ~2,074-node instance when k%5 == 4 and a
// ~210-node one otherwise. Exactly one request in every largeEvery is
// large, at a seeded place in its block, and each class draws its key
// Zipf(1.1) over its own keys. So the median request is a small one,
// and every seed and phase sends the same share of large ones: drawn
// from one Zipf over all keys, that share ranged from 11% to 15%
// between seeds, and capacity with it.
type keyedWorkload struct {
	seed         int64
	rps          float64
	fleet        bool
	bodies       [][]byte
	small, large []int // the keys of each class
	oracle       *solveOracle
}

const largeEvery = 8

func newKeyed(seed int64, keys int, rps float64, useFleet bool) *keyedWorkload {
	w := &keyedWorkload{seed: seed, rps: rps, fleet: useFleet, bodies: make([][]byte, keys), oracle: newSolveOracle()}
	for k := range w.bodies {
		large := k%5 == 4
		eng := smallEngines[k%len(smallEngines)]
		if large {
			eng = largeEngines[(k/5)%len(largeEngines)]
			w.large = append(w.large, k)
		} else {
			w.small = append(w.small, k)
		}
		w.bodies[k] = solveBody(eng, instance(rngFor(seed, "key", k), large), false)
	}
	return w
}

func (w *keyedWorkload) rate() float64 { return w.rps }

func (w *keyedWorkload) serve() *stack {
	if !w.fleet {
		return serverStack()
	}
	// Four workers with a 64-entry tier-1 cache each and replication 2:
	// every gossiped copy takes a tier-1 slot, so the fleet holds about
	// 256/3 ≈ 85 distinct keys of the 512.
	fl := fleet.New(fleet.Config{Workers: 4, Replication: 2, CacheSize: 64})
	return &stack{handler: fl.Router(), fl: fl}
}

func (w *keyedWorkload) ready(context.Context, sendFunc) error { return nil }

// warmup visits every key once when the keyspace fits the cache, so
// every timed request of solve-hot is a hit; the fleet, whose caches
// hold a sixth of its keys, warms on a Zipf stream of its own.
func (w *keyedWorkload) warmup() []httpOp {
	if w.fleet {
		return w.ops("warmup", len(w.bodies)/2)
	}
	var ops []httpOp
	for _, b := range w.bodies {
		ops = append(ops, solveOp(b))
	}
	return append(ops, w.ops("warmup", len(w.bodies))...)
}

func (w *keyedWorkload) ops(phase string, n int) []httpOp {
	rng := rngFor(w.seed, phase, 0)
	small := rand.NewZipf(rng, 1.1, 1, uint64(len(w.small)-1))
	large := rand.NewZipf(rng, 1.1, 1, uint64(len(w.large)-1))
	ops := make([]httpOp, n)
	at := 0 // the large operation of the current block
	for i := range ops {
		if i%largeEvery == 0 {
			at = i + rng.Intn(largeEvery)
		}
		if i == at {
			ops[i] = solveOp(w.bodies[w.large[large.Uint64()]])
		} else {
			ops[i] = solveOp(w.bodies[w.small[small.Uint64()]])
		}
	}
	return ops
}

func (w *keyedWorkload) closedLen() int { return 100_000 }

func (w *keyedWorkload) check(open []httpOp, kept map[int][]byte) ([]float64, []error) {
	return checkSolves(w.oracle, open, kept)
}

func (w *keyedWorkload) replayer(st *stack) (replayer, error) {
	if w.fleet {
		return &fleetReplay{ring: st.fl.Ring()}, nil
	}
	return newSolveReplay(w.warmup())
}

// checkSolves runs the /v2/solve oracle over the kept responses.
func checkSolves(o *solveOracle, open []httpOp, kept map[int][]byte) ([]float64, []error) {
	var gaps []float64
	var errs []error
	for _, i := range sortedKeys(kept) {
		gap, err := o.check(open[i].body, kept[i])
		if err != nil {
			errs = append(errs, fmt.Errorf("op %d: %w", i, err))
			continue
		}
		gaps = append(gaps, gap)
	}
	return gaps, errs
}

// coldWorkload is solve-cold: every request a distinct instance, so
// every request misses the cache. 80% are auto or lp-round on ~210
// nodes, 20% single-gen / multiple-greedy / multiple-best on ~2,074,
// and every 4th asks for a certificate.
type coldWorkload struct {
	seed   int64
	oracle *solveOracle
}

func (w *coldWorkload) rate() float64                         { return 40 }
func (w *coldWorkload) serve() *stack                         { return serverStack() }
func (w *coldWorkload) ready(context.Context, sendFunc) error { return nil }
func (w *coldWorkload) warmup() []httpOp                      { return w.ops("warmup", 32) }
func (w *coldWorkload) replayer(*stack) (replayer, error)     { return newSolveReplay(w.warmup()) }
func (w *coldWorkload) check(open []httpOp, kept map[int][]byte) ([]float64, []error) {
	return checkSolves(w.oracle, open, kept)
}

// closedLen exceeds the 1024-entry LRU, and a cyclic scan over more
// keys than an LRU holds misses on every request.
func (w *coldWorkload) closedLen() int { return 1100 }

func (w *coldWorkload) ops(phase string, n int) []httpOp {
	ops := make([]httpOp, n)
	for i := range ops {
		large := i%5 == 4
		eng := coldSmall[i%len(coldSmall)]
		if large {
			eng = largeEngines[(i/5)%len(largeEngines)]
		}
		ops[i] = solveOp(solveBody(eng, instance(rngFor(w.seed, phase, i), large), i%4 == 0))
	}
	return ops
}

// solveReplay re-enacts the /v2/solve handler's layer calls on its own
// result cache, in the handler's order: decode, hash, cache lookup,
// and on a miss solve, clone, verify and cache insert; then certify
// when asked, and encode.
type solveReplay struct {
	cache *service.Cache
	buf   bytes.Buffer
	flat  tree.Flat
	last  *core.Instance // the last op's instance and whether it missed,
	miss  bool           // for the probes
}

func newSolveReplay(warmup []httpOp) (*solveReplay, error) {
	r := &solveReplay{cache: service.NewCache(service.DefaultCacheSize)}
	var acc layerAcc
	for i := range warmup {
		if err := r.op(nil, -1, &warmup[i], &acc); err != nil {
			return nil, fmt.Errorf("replay warm-up: %w", err)
		}
	}
	return r, nil
}

func (r *solveReplay) op(tr *tracer, root int, op *httpOp, _ *layerAcc) error {
	begin := time.Now()
	sp := tr.child("service.decode", root)
	var req service.SolveRequestV2
	err := json.NewDecoder(bytes.NewReader(op.body)).Decode(&req)
	tr.end(sp)
	if err != nil {
		return err
	}
	eng, err := solver.Lookup(req.Solver)
	if err != nil {
		return err
	}
	sp = tr.child("core.hash", root)
	hash := req.Instance.CanonicalHash()
	tr.end(sp)
	sp = tr.child("service.cache", root)
	rep, hit := r.cache.Get(eng.Name(), hash)
	tr.end(sp)
	r.last, r.miss = req.Instance, !hit
	if !hit {
		sc := solver.GetScratch()
		sp = tr.child("solver.solve."+eng.Name(), root)
		rep, err = eng.Solve(context.Background(), solver.Request{Instance: req.Instance, Scratch: sc})
		tr.end(sp)
		if err != nil {
			solver.PutScratch(sc)
			return err
		}
		sp = tr.child("solver.clone", root)
		rep.Solution = rep.Solution.Clone()
		tr.end(sp)
		solver.PutScratch(sc)
		sp = tr.child("core.verify", root)
		err = core.Verify(req.Instance, rep.Policy, rep.Solution)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.child("service.cache", root)
		r.cache.Put(eng.Name(), hash, rep)
		tr.end(sp)
	}
	var c *cert.Certificate
	if req.Certificate {
		sp = tr.child("solver.certify", root)
		c, err = solver.Certify(req.Instance, &rep)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	sp = tr.child("service.encode", root)
	r.buf.Reset()
	enc := json.NewEncoder(&r.buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(service.SolveResponseV2{
		Solver: eng.Name(), Engine: rep.Engine, Policy: rep.Policy.String(), Hash: hash,
		Replicas: rep.Solution.NumReplicas(), LowerBound: rep.LowerBound, Gap: rep.Gap,
		Work: rep.Work, Proved: rep.Proved, Verified: true, Cached: hit,
		ElapsedMS: float64(time.Since(begin)) / 1e6, Solution: rep.Solution, Certificate: c,
	})
	tr.end(sp)
	return err
}

// probe times the steps the handler runs inside other stages: Validate
// inside the decode and, on a miss, the scratch ingest's FlattenInto
// and the report's LowerBound inside Engine.Solve.
func (r *solveReplay) probe(tr *tracer, opID int) {
	in := r.last
	probe(tr, "core.validate", opID, func() { _ = in.Validate() })
	if r.miss {
		probe(tr, "tree.flatten", opID, func() { tree.FlattenInto(&r.flat, in.Tree) })
		probe(tr, "core.lower_bound", opID, func() { core.LowerBound(in) })
	}
}

// probe records fn as a root-level probe span of operation opID.
func probe(tr *tracer, name string, opID int, fn func()) {
	if tr == nil {
		return
	}
	sp := tr.begin(name, -1, opID, 0)
	fn()
	tr.end(sp)
}

// fleetReplay re-enacts the router's own calls before the worker hop:
// the routing key (a second decode of the body plus its canonical
// hash, as the router's solveKey does) and the ring lookup of the
// owner and its failover successors. The worker's calls happen inside
// the fleet package, out of reach, and show as unaccounted time.
type fleetReplay struct {
	ring *fleet.Ring
}

func (r *fleetReplay) op(tr *tracer, root int, op *httpOp, _ *layerAcc) error {
	sp := tr.child("fleet.route_key", root)
	var body struct {
		Instance *core.Instance `json:"instance"`
	}
	err := json.Unmarshal(op.body, &body)
	var key string
	if err == nil {
		key = body.Instance.CanonicalHash()
	}
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.child("fleet.ring", root)
	// 1 + the default two failover attempts, as the router asks.
	ids := r.ring.Successors(key, 3)
	tr.end(sp)
	if len(ids) == 0 {
		return fmt.Errorf("ring has no owner for %s", key)
	}
	return nil
}

func (r *fleetReplay) probe(*tracer, int) {}
