package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"time"

	"replicatree/internal/fleet"
	"replicatree/internal/service"
)

// httpOp is one request of an HTTP workload.
type httpOp struct {
	method, path string
	body         []byte
	// pin is the session the operation belongs to; the operation runs
	// on client lane pin mod conns so a session's operations stay in
	// order. -1 lets any free client take it.
	pin int
}

// sendFunc performs one operation against a service and returns the
// status and response body.
type sendFunc func(ctx context.Context, op *httpOp) (int, []byte, error)

// httpWorkload is one HTTP traffic mix against the service stack.
type httpWorkload interface {
	// rate is the open phase's arrival rate in operations per second,
	// a fifth to a third of the workload's closed-phase capacity: at
	// twice that, queueing amplified every drift of the host's speed,
	// and p50 spread 15-17% over eight seeds on solve-cold and
	// session-churn, against 9-10% at these rates.
	rate() float64
	// serve builds a fresh service stack.
	serve() *stack
	// ready brings a fresh stack to the state traffic expects (session
	// PUTs and first solves); warmup is the untimed traffic sent after.
	ready(ctx context.Context, send sendFunc) error
	warmup() []httpOp
	// ops returns the first n operations of a phase's sequence, derived
	// from the seed and the phase name alone.
	ops(phase string, n int) []httpOp
	// closedLen is the length of the closed phase's sequence, which
	// clients cycle through.
	closedLen() int
	// check verifies the open phase's kept responses and returns the
	// gaps of the checked answers.
	check(open []httpOp, kept map[int][]byte) ([]float64, []error)
	// replayer returns the traced re-enactment of the handler's layer
	// calls, in the same state as a fresh twin of st after warm-up.
	replayer(st *stack) (replayer, error)
}

// replayer re-enacts one operation's layer calls in-process, recording
// a span per call under root. With a nil tracer it only advances state
// (warm-up).
type replayer interface {
	op(tr *tracer, root int, op *httpOp, acc *layerAcc) error
	// probe times, as root-level probe spans, the calls the last op made
	// inside another layer's call.
	probe(tr *tracer, opID int)
}

// stack is one service instance, built the way cmd/replicad
// (service.New) or cmd/replicafleet (fleet.New) build it.
type stack struct {
	handler http.Handler
	srv     *service.Server
	fl      *fleet.Fleet
}

func serverStack() *stack {
	srv := service.New(service.Options{CacheSize: service.DefaultCacheSize})
	return &stack{handler: srv, srv: srv}
}

func (s *stack) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	if s.fl != nil {
		s.fl.Close()
	}
}

// direct sends an operation straight into the stack's handler, with no
// socket in between.
func (s *stack) direct(_ context.Context, op *httpOp) (int, []byte, error) {
	rec := httptest.NewRecorder()
	s.handler.ServeHTTP(rec, newRequest(op))
	return rec.Code, rec.Body.Bytes(), nil
}

func newRequest(op *httpOp) *http.Request {
	return httptest.NewRequest(op.method, op.path, bytes.NewReader(op.body))
}

// served is a stack behind a net/http.Server on a loopback socket plus
// the client that loads it with at most conns connections.
type served struct {
	st     *stack
	hs     *http.Server
	errc   chan error
	base   string
	client *http.Client
}

func listen(st *stack, conns int) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sv := &served{
		st:   st,
		hs:   &http.Server{Handler: st.handler, ReadHeaderTimeout: 10 * time.Second},
		errc: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	go func() { sv.errc <- sv.hs.Serve(ln) }()
	return sv, nil
}

// send performs op over the socket, keeping the body only when asked.
func (sv *served) send(ctx context.Context, op *httpOp, keep bool) (int, []byte, error) {
	var body io.Reader = http.NoBody
	if op.body != nil {
		body = bytes.NewReader(op.body)
	}
	req, err := http.NewRequestWithContext(ctx, op.method, sv.base+op.path, body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := sv.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if keep {
		b, err := io.ReadAll(resp.Body)
		return resp.StatusCode, b, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil, err
}

// close shuts the server down, waits for its goroutine and closes the
// stack.
func (sv *served) close() error {
	sv.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := sv.hs.Shutdown(ctx)
	if serr := <-sv.errc; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	sv.st.close()
	return err
}

// start is one set-up: a fresh stack on a socket, made ready and warmed.
func start(ctx context.Context, w httpWorkload, conns int) (*served, error) {
	sv, err := listen(w.serve(), conns)
	if err != nil {
		return nil, err
	}
	send := func(ctx context.Context, op *httpOp) (int, []byte, error) { return sv.send(ctx, op, true) }
	if err := w.ready(ctx, send); err == nil {
		err = sendAll(ctx, w.warmup(), send)
	}
	if err != nil {
		sv.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return sv, nil
}

// sendAll sends ops in order and fails on the first non-2xx answer.
func sendAll(ctx context.Context, ops []httpOp, send sendFunc) error {
	for i := range ops {
		status, body, err := send(ctx, &ops[i])
		if err != nil {
			return err
		}
		if status < 200 || status >= 300 {
			return fmt.Errorf("%s %s: status %d: %s", ops[i].method, ops[i].path, status, body)
		}
	}
	return nil
}

// lanesOf pins operations to client lanes by session, or returns nil
// when the operations may run on any client.
func lanesOf(ops []httpOp, conns int) [][]int {
	if len(ops) == 0 || ops[0].pin < 0 {
		return nil
	}
	lanes := make([][]int, conns)
	for i := range ops {
		c := ops[i].pin % conns
		lanes[c] = append(lanes[c], i)
	}
	return lanes
}

// phases splits a run's measured time into the open phase, two thirds,
// and the closed phase, one third. Each phase starts with an unmeasured
// ramp of a twelfth of the run, so the runtime (heap size, GC pacing,
// pools, connections) reaches the phase's steady state first.
func phases(seconds float64) (ramp, open, closed time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	return total / 12, total * 2 / 3, total / 3
}

// runHTTP measures an HTTP workload end to end over loopback sockets:
// set-up, an open phase at the workload's rate, a closed phase at nproc
// clients, then the oracle over every 16th open-phase response.
//
// setup_s is the median of setupReps set-ups, some before the traffic
// and the rest after it, each on a stack of its own: the host's speed
// drifts over seconds, and set-ups run back to back all met the same
// spell of it.
func runHTTP(cfg config, w httpWorkload) (*result, error) {
	ctx := context.Background()
	conns := runtime.NumCPU()
	ramp, openDur, closedDur := phases(cfg.seconds)
	open := w.ops("open", int(math.Ceil(w.rate()*(ramp+openDur).Seconds())))
	closed := w.ops("closed", w.closedLen())

	setups := make([]float64, 0, setupReps)
	setUp := func() (*served, error) {
		runtime.GC()
		begin := time.Now()
		sv, err := start(ctx, w, conns)
		if err == nil {
			setups = append(setups, time.Since(begin).Seconds())
		}
		return sv, err
	}
	spares := func(upTo int) error {
		for len(setups) < upTo {
			sv, err := setUp()
			if err != nil {
				return err
			}
			if err := sv.close(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := spares(setupReps / 2); err != nil {
		return nil, err
	}
	sv, err := setUp()
	if err != nil {
		return nil, err
	}
	samples := openLoop(ctx, len(open), w.rate(), conns, lanesOf(open, conns),
		func(i int) bool { return i%sampleEvery == 0 },
		func(ctx context.Context, i int, keep bool) (int, []byte, error) { return sv.send(ctx, &open[i], keep) })
	tally := closedLoop(ctx, len(closed), ramp+closedDur, conns, lanesOf(closed, conns),
		func(ctx context.Context, i int, keep bool) (int, []byte, error) {
			return sv.send(ctx, &closed[i], keep)
		})
	err = sv.close()
	if err == nil {
		err = spares(setupReps)
	}
	if err != nil {
		return nil, err
	}

	var lat, late []time.Duration
	kept := make(map[int][]byte)
	failed, badStatus := tally.failed, 0
	for i := range samples {
		s := &samples[i]
		switch {
		case s.err != nil:
			failed++
		case !s.ok():
			failed++
			badStatus++
		case s.body != nil:
			kept[i] = s.body
		}
		if s.due >= ramp {
			lat, late = append(lat, s.latency()), append(late, s.sent-s.due)
		}
	}
	gaps, errs := w.check(open, kept)
	for _, err := range errs {
		fmt.Fprintln(cfg.log, "oracle:", err)
	}
	failed += len(errs)
	attempted := len(samples) + tally.attempted

	m := metricSet{}
	m.set("setup_s", "s", median(setups))
	m.set("p50_ms", "ms", ms(quantile(lat, 0.50)))
	m.set("peak_rss_mb", "MB", peakRSSMB())
	fmt.Fprintf(cfg.log, "diagnostics: open %d ops at %.0f/s: p90 %.3f ms, p99 %.3f ms, generator late_p99 %.3f ms; "+
		"closed %d ops on %d clients: capacity %.1f ops/s; %d answers checked, gap_mean %.4f; error_rate %.4g\n",
		len(lat), w.rate(), ms(quantile(lat, 0.90)), ms(quantile(lat, 0.99)), ms(quantile(late, 0.99)),
		tally.attempted, conns, capacity(tally.done, ramp, closedDur), len(kept), mean(gaps), float64(failed)/float64(attempted))
	return &result{
		Correct:   len(errs) == 0 && badStatus == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// runtimeCounters reads the process-wide GC cycle and heap allocation
// totals.
func runtimeCounters() (gcCycles, allocBytes uint64) {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// traceHTTP is the traced run of an HTTP workload. It first sends a
// third of the run's time of open-phase traffic over sockets, untraced,
// for the runtime counters; then it replays the open phase's first
// replayOps operations in-process, each through the real handler of a
// twin stack (timed, with its allocations) and through the replayer
// (one span per layer call), alternating which goes first.
func traceHTTP(cfg config, w httpWorkload) (*result, error) {
	ctx := context.Background()
	conns := runtime.NumCPU()
	_, openDur, _ := phases(cfg.seconds)
	nSocket := int(math.Ceil(w.rate() * cfg.seconds / 3))
	ops := w.ops("open", max(nSocket, replayOps))
	acc := &layerAcc{}

	sv, err := start(ctx, w, conns)
	if err != nil {
		return nil, err
	}
	gc0, alloc0 := runtimeCounters()
	samples := openLoop(ctx, nSocket, w.rate(), conns, lanesOf(ops[:nSocket], conns),
		func(int) bool { return false },
		func(ctx context.Context, i int, keep bool) (int, []byte, error) { return sv.send(ctx, &ops[i], keep) })
	gc1, alloc1 := runtimeCounters()
	if err := sv.close(); err != nil {
		return nil, err
	}
	acc.gcPerKop = float64(gc1-gc0) / float64(nSocket) * 1000
	acc.allocMBPerKop = float64(alloc1-alloc0) / float64(nSocket) * 1000 / (1 << 20)
	failed := 0
	for i := range samples {
		if !samples[i].ok() {
			failed++
		}
	}

	twin := w.serve()
	defer twin.close()
	if err := w.ready(ctx, twin.direct); err == nil {
		err = sendAll(ctx, w.warmup(), twin.direct)
	}
	if err != nil {
		return nil, fmt.Errorf("twin set-up: %w", err)
	}
	rp, err := w.replayer(twin)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	c0 := readCounters(twin)
	deadline := time.Now().Add(openDur)
	for i := 0; i < replayOps && time.Now().Before(deadline); i++ {
		op := &ops[i]
		runTwin := func() {
			req, rec := newRequest(op), httptest.NewRecorder()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			begin := time.Now()
			twin.handler.ServeHTTP(rec, req)
			acc.handlerNS += int64(time.Since(begin))
			runtime.ReadMemStats(&m1)
			acc.allocs += m1.Mallocs - m0.Mallocs
			acc.allocBytes += m1.TotalAlloc - m0.TotalAlloc
			acc.reqBytes += int64(len(op.body))
			acc.respBytes += int64(rec.Body.Len())
			var answer struct {
				Gap float64 `json:"gap"`
			}
			if rec.Code < 200 || rec.Code >= 300 || json.Unmarshal(rec.Body.Bytes(), &answer) != nil {
				fmt.Fprintf(cfg.log, "twin: op %d: status %d: %s\n", i, rec.Code, rec.Body.Bytes())
				failed++
				return
			}
			acc.gapSum += answer.Gap
			acc.answers++
		}
		runReplay := func() {
			root := tr.begin("op", -1, i, 0)
			err := rp.op(tr, root, op, acc)
			tr.end(root)
			if err != nil {
				fmt.Fprintf(cfg.log, "replay: op %d: %v\n", i, err)
				failed++
			}
			rp.probe(tr, i)
		}
		if i%2 == 0 {
			runTwin()
			runReplay()
		} else {
			runReplay()
			runTwin()
		}
		acc.ops++
	}
	c1 := readCounters(twin)
	if acc.ops == 0 {
		return nil, errors.New("traced replay ran no operations")
	}
	if err := saveTrace(cfg, tr, acc.ops); err != nil {
		return nil, err
	}
	return &result{
		Correct:   failed == 0,
		Attempted: nSocket + acc.ops,
		Failed:    failed,
		Metrics:   layerMetrics(acc, tr.spans, c0, c1),
	}, nil
}
