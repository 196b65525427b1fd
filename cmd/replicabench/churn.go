package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"replicatree/internal/core"
	"replicatree/internal/delta"
	"replicatree/internal/service"
	"replicatree/internal/solver"
	"replicatree/internal/tree"
)

// churnSessions is session-churn's session count. Every fourth session
// is bound to the delta engine (multiple-replan) over a ~210-node
// instance, the rest to incremental Algorithm 1 (single-gen) over
// ~2,074 nodes: a replan resolve takes about 100 ms at ~2k nodes, which
// would stall the session's pinned connection and turn the workload
// into a measurement of that one engine.
const churnSessions = 16

// churnWorkload is session-churn: 80% POST …/mutate with 1–3
// set_request ops (rates stay ≤ W, so every instance stays feasible)
// and 20% GET …/solution.
type churnWorkload struct {
	seed    int64
	insts   []*core.Instance
	ids     []string
	engines []string
	clients [][]tree.NodeID
	puts    [][]byte
}

func newChurn(seed int64) *churnWorkload {
	w := &churnWorkload{seed: seed}
	for s := 0; s < churnSessions; s++ {
		eng := solver.SingleGen
		if s%4 == 3 {
			eng = solver.MultipleReplan
		}
		in := instance(rngFor(seed, "session", s), eng == solver.SingleGen)
		put, err := json.Marshal(service.InstancePutRequest{Solver: eng, Instance: in})
		if err != nil {
			panic(err) // a generated instance always marshals
		}
		w.insts = append(w.insts, in)
		w.ids = append(w.ids, in.CanonicalHash())
		w.engines = append(w.engines, eng)
		w.clients = append(w.clients, in.Tree.Clients())
		w.puts = append(w.puts, put)
	}
	return w
}

func (w *churnWorkload) rate() float64    { return 300 }
func (w *churnWorkload) serve() *stack    { return serverStack() }
func (w *churnWorkload) closedLen() int   { return 20_000 }
func (w *churnWorkload) warmup() []httpOp { return w.ops("warmup", 64) }

// ready opens every session and takes its first placement.
func (w *churnWorkload) ready(ctx context.Context, send sendFunc) error {
	for s := range w.insts {
		put := httpOp{method: http.MethodPut, path: "/v2/instances/" + w.ids[s], body: w.puts[s], pin: s}
		get := httpOp{method: http.MethodGet, path: "/v2/instances/" + w.ids[s] + "/solution", pin: s}
		if err := sendAll(ctx, []httpOp{put, get}, send); err != nil {
			return err
		}
	}
	return nil
}

// ops deals the operations in seeded shuffles of blocks holding five
// per session, one of the five a GET, so every seed and phase sends
// each session the same share of the traffic in the same 80/20 mix.
func (w *churnWorkload) ops(phase string, n int) []httpOp {
	rng := rngFor(w.seed, phase, 0)
	ops := make([]httpOp, n)
	var block []int // session*5 + slot; slot 0 is the GET
	for i := range ops {
		if len(block) == 0 {
			block = rng.Perm(5 * churnSessions)
		}
		s, get := block[0]/5, block[0]%5 == 0
		block = block[1:]
		if get {
			ops[i] = httpOp{method: http.MethodGet, path: "/v2/instances/" + w.ids[s] + "/solution", pin: s}
			continue
		}
		var req service.MutateRequest
		for k := 1 + rng.Intn(3); k > 0; k-- {
			cl := w.clients[s]
			req.Mutations = append(req.Mutations, delta.Mutation{
				Op:       delta.OpSetRequest,
				Node:     cl[rng.Intn(len(cl))],
				Requests: 1 + rng.Int63n(min(w.insts[s].W, 10)),
			})
		}
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // plain structs always marshal
		}
		ops[i] = httpOp{method: http.MethodPost, path: "/v2/instances/" + w.ids[s] + "/mutate", body: body, pin: s}
	}
	return ops
}

// check replays the warm-up and open-phase mutations on a tree.Editor
// mirror of each session and verifies every kept answer against the
// mirror at that point. A single-gen session's answer must also match
// a cold single-gen solve of the mirror (delta ≡ cold).
func (w *churnWorkload) check(open []httpOp, kept map[int][]byte) ([]float64, []error) {
	mirrors := make([]*tree.Editor, len(w.insts))
	for s, in := range w.insts {
		mirrors[s] = tree.NewEditor(in.Tree)
	}
	apply := func(op *httpOp) error {
		if op.method != http.MethodPost {
			return nil
		}
		var req service.MutateRequest
		if err := json.Unmarshal(op.body, &req); err != nil {
			return err
		}
		for _, m := range req.Mutations {
			if err := mirrors[op.pin].SetRequests(m.Node, m.Requests); err != nil {
				return err
			}
		}
		return nil
	}
	var gaps []float64
	var errs []error
	warm := w.warmup()
	for i := range warm {
		if err := apply(&warm[i]); err != nil {
			return nil, []error{err}
		}
	}
	for i := range open {
		op := &open[i]
		if err := apply(op); err != nil {
			return nil, []error{err}
		}
		body, ok := kept[i]
		if !ok {
			continue
		}
		gap, err := w.checkAnswer(op.pin, mirrors[op.pin].Tree(), body)
		if err != nil {
			errs = append(errs, fmt.Errorf("op %d (session %d): %w", i, op.pin, err))
			continue
		}
		gaps = append(gaps, gap)
	}
	return gaps, errs
}

func (w *churnWorkload) checkAnswer(s int, t *tree.Tree, body []byte) (float64, error) {
	var out service.InstanceSolveResponse
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, fmt.Errorf("oracle: response: %w", err)
	}
	in := &core.Instance{Tree: t, W: w.insts[s].W, DMax: w.insts[s].DMax}
	gap, err := checkAnswer(in, out.Policy, out.Replicas, out.LowerBound, out.Solution)
	if err != nil || w.engines[s] != solver.SingleGen {
		return gap, err
	}
	rep, err := solver.MustLookup(solver.SingleGen).Solve(context.Background(), solver.Request{Instance: in})
	if err != nil {
		return 0, fmt.Errorf("oracle: cold single-gen: %w", err)
	}
	if rep.Solution.NumReplicas() != out.Replicas {
		return 0, fmt.Errorf("oracle: session served %d replicas, cold single-gen has %d", out.Replicas, rep.Solution.NumReplicas())
	}
	return gap, nil
}

// churnReplay re-enacts the instance-session handlers on its own
// sessions: decode, Session.Apply and Session.Resolve for a mutate,
// then the Session.Instance snapshot the response header is built from,
// and the encode.
type churnReplay struct {
	sess []*delta.Session
	buf  bytes.Buffer
}

func (w *churnWorkload) replayer(*stack) (replayer, error) {
	r := &churnReplay{}
	for s, in := range w.insts {
		sess, err := delta.New(in, w.engines[s])
		if err != nil {
			return nil, err
		}
		if _, err := sess.Resolve(context.Background()); err != nil {
			return nil, err
		}
		r.sess = append(r.sess, sess)
	}
	warm := w.warmup()
	var acc layerAcc
	for i := range warm {
		if err := r.op(nil, -1, &warm[i], &acc); err != nil {
			return nil, fmt.Errorf("replay warm-up: %w", err)
		}
	}
	return r, nil
}

func (r *churnReplay) op(tr *tracer, root int, op *httpOp, acc *layerAcc) error {
	sess := r.sess[op.pin]
	var rep solver.Report
	if op.method == http.MethodPost {
		sp := tr.child("service.decode", root)
		var req service.MutateRequest
		err := json.NewDecoder(bytes.NewReader(op.body)).Decode(&req)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.child("delta.apply", root)
		err = sess.Apply(req.Mutations)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.child("delta.resolve", root)
		rep, err = sess.Resolve(context.Background())
		tr.end(sp)
		if err != nil {
			return err
		}
		if rep.Churn != nil {
			acc.churnAdded += len(rep.Churn.Added)
		}
		acc.resolves++
	} else {
		rep, _ = sess.Report()
	}
	sp := tr.child("delta.snapshot", root)
	in := sess.Instance()
	_, solved := sess.Report()
	tr.end(sp)
	sp = tr.child("service.encode", root)
	doc := service.InstanceDoc{
		ID: sess.ID(), Solver: sess.Engine(), Nodes: in.Tree.Len(), W: in.W, DMax: in.DMax,
		Solved: solved, TTLMS: float64(service.DefaultInstanceTTL.Milliseconds()),
	}
	var churn *service.ChurnDoc
	if ch := rep.Churn; ch != nil {
		churn = &service.ChurnDoc{MovedRequests: ch.MovedRequests}
		for _, id := range ch.Added {
			churn.Added = append(churn.Added, int32(id))
		}
		for _, id := range ch.Removed {
			churn.Removed = append(churn.Removed, int32(id))
		}
	}
	r.buf.Reset()
	enc := json.NewEncoder(&r.buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(service.InstanceSolveResponse{
		Instance: doc, Engine: rep.Engine, Policy: rep.Policy.String(), Replicas: rep.Solution.NumReplicas(),
		LowerBound: rep.LowerBound, Gap: rep.Gap, Proved: rep.Proved,
		ElapsedMS: float64(rep.Elapsed) / 1e6, Churn: churn, Solution: rep.Solution,
	})
	tr.end(sp)
	return err
}

func (r *churnReplay) probe(*tracer, int) {}
