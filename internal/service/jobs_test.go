package service

import (
	"context"
	"sync"
	"testing"
	"time"

	"replicatree/internal/core"
	"replicatree/internal/solver"
)

// registerSlowSolver registers (once per process) an engine that
// ignores its context for ~200ms before answering — the shape of
// solver that solver.Batch abandons on a per-task timeout.
var registerSlowSolver = sync.OnceFunc(func() {
	slow := solver.NewEngine(solver.Capabilities{
		Name: "test-slow", Policy: core.Single, SupportsDMax: true,
		Cost: solver.CostPolynomial, Description: "test: sleeps 200ms, ignores its context",
	}, func(ctx context.Context, req solver.Request) (*core.Solution, int64, error) {
		time.Sleep(200 * time.Millisecond)
		sol := core.Trivial(req.Instance)
		if sol == nil {
			return nil, 0, context.Canceled
		}
		return sol, 0, nil
	})
	if err := solver.RegisterEngine(slow); err != nil {
		panic(err)
	}
})

// TestBatchTaskTimeoutAbandonedSolve pins the cachingEngine data-race
// fix: a timed-out batch task's solve goroutine is abandoned by
// solver.Batch but keeps running; its eventual LastCached store must
// not race with a poll rendering results. The test drives
// JobManager directly — HTTP polling would launder the race through
// an incidental m.mu → metrics.mu happens-before chain and hide it
// from the race detector.
func TestBatchTaskTimeoutAbandonedSolve(t *testing.T) {
	registerSlowSolver()
	in := goldenInstance(t, "binary_nod_1.json")
	srv := New(Options{CacheSize: 8})
	defer srv.Close()

	tasks := []solver.Task{{
		ID:      "slow",
		Engine:  &cachingEngine{server: srv, inner: solver.MustLookup("test-slow")},
		Request: solver.Request{Instance: in},
	}}
	id, err := srv.jobs.Submit(tasks, solver.Options{Timeout: 10 * time.Millisecond}, false)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	var jr JobResponseV2
	for {
		var ok bool
		jr, ok = srv.jobs.GetV2(id)
		if !ok {
			t.Fatal("job vanished")
		}
		if jr.Status == JobDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", jr.Status)
		}
		time.Sleep(time.Millisecond)
	}
	if len(jr.Results) != 1 || jr.Results[0].OK {
		t.Fatalf("timed-out task should fail: %+v", jr.Results)
	}
	if jr.Stats.Failed != 1 {
		t.Errorf("stats %+v, want 1 failed", jr.Stats)
	}
	// Keep the process alive past the abandoned solve's completion so
	// the race detector can observe its writes.
	time.Sleep(250 * time.Millisecond)
}

func TestJobQueueBackpressure(t *testing.T) {
	registerSlowSolver()
	in := goldenInstance(t, "binary_nod_1.json")
	m := NewJobManager(1, 1, 0)
	defer m.Close()
	slow := solver.MustLookup("test-slow")
	task := []solver.Task{{Engine: slow, Request: solver.Request{Instance: in}}}

	// First job occupies the single runner, second fills the queue;
	// the third must be rejected, not buffered.
	if _, err := m.Submit(task, solver.Options{}, false); err != nil {
		t.Fatal(err)
	}
	var sawFull bool
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(task, solver.Options{}, false); err != nil {
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Error("queue accepted more jobs than its bound")
	}
}

func TestJobManagerCloseSkipsQueued(t *testing.T) {
	registerSlowSolver()
	in := goldenInstance(t, "binary_nod_1.json")
	m := NewJobManager(1, 4, 0)
	slow := solver.MustLookup("test-slow")
	task := func() solver.Task { return solver.Task{Engine: slow, Request: solver.Request{Instance: in}} }
	running, err := m.Submit([]solver.Task{task()}, solver.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit([]solver.Task{task(), task()}, solver.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	if _, err := m.Submit([]solver.Task{task()}, solver.Options{}, false); err == nil {
		t.Error("closed manager accepted a job")
	}
	for _, id := range []string{running, queued} {
		jr, ok := m.GetV2(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if jr.Status != JobDone {
			t.Errorf("job %s status %q after Close, want done", id, jr.Status)
		}
	}
	// The queued job was drained post-cancel: its tasks are skipped.
	jr, _ := m.GetV2(queued)
	for _, r := range jr.Results {
		if r.OK {
			t.Errorf("queued task unexpectedly ran to completion: %+v", r)
		}
	}
}
