package solver

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"replicatree/internal/core"
	"replicatree/internal/gen"
	"replicatree/internal/tree"
)

// nodInstance builds a small NoD instance every solver can handle.
func nodInstance(t testing.TB) *core.Instance {
	t.Helper()
	b := tree.NewBuilder()
	root := b.Root("root")
	a := b.Internal(root, 1, "a")
	b.Client(a, 1, 5, "c1")
	b.Client(a, 1, 7, "c2")
	b.Client(root, 1, 2, "c3")
	return &core.Instance{Tree: b.MustBuild(), W: 12, DMax: core.NoDistance}
}

// withDistanceInstance builds the same tree under a finite dmax.
func withDistanceInstance(t testing.TB) *core.Instance {
	t.Helper()
	in := nodInstance(t)
	return &core.Instance{Tree: in.Tree, W: in.W, DMax: 2}
}

func TestBatchSolvesAllInOrder(t *testing.T) {
	instances := make([]*core.Instance, 6)
	rng := rand.New(rand.NewSource(1))
	for i := range instances {
		instances[i] = gen.RandomInstance(rng, gen.TreeConfig{
			Internals: 1 + rng.Intn(3), MaxArity: 2, MaxDist: 3, MaxReq: 9,
		}, false)
	}
	var tasks []Task
	for i, in := range instances {
		for _, name := range []string{SingleGen, MultipleBest} {
			tasks = append(tasks, Task{ID: fmt.Sprintf("%d/%s", i, name), Engine: MustLookup(name), Request: Request{Instance: in}})
		}
	}
	results, st := Batch(context.Background(), tasks, Options{Workers: 4})
	if len(results) != len(tasks) {
		t.Fatalf("got %d results for %d tasks", len(results), len(tasks))
	}
	for i, r := range results {
		if r.Task.ID != tasks[i].ID {
			t.Fatalf("result %d out of order: %s != %s", i, r.Task.ID, tasks[i].ID)
		}
		if r.Err != nil {
			t.Errorf("%s: %v", r.Task.ID, r.Err)
		}
		sol := r.Report.Solution
		if sol == nil || sol.NumReplicas() == 0 {
			t.Errorf("%s: empty solution", r.Task.ID)
		}
		if err := core.Verify(r.Task.Request.Instance, r.Task.Engine.Capabilities().Policy, sol); err != nil {
			t.Errorf("%s: infeasible: %v", r.Task.ID, err)
		}
	}
	if st.Tasks != len(tasks) || st.Solved != len(tasks) || st.Failed != 0 || st.Skipped != 0 {
		t.Errorf("stats mismatch: %+v", st)
	}
	if st.Replicas == 0 || st.Work <= 0 {
		t.Errorf("degenerate stats: %+v", st)
	}
	if s := st.String(); !strings.Contains(s, "solved") {
		t.Errorf("stats string malformed: %s", s)
	}
	if tab := st.Table(); tab.NumRows() != 1 {
		t.Errorf("stats table malformed")
	}
}

func TestBatchIdenticalAcrossWorkerCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var tasks []Task
	for i := 0; i < 10; i++ {
		in := gen.RandomInstance(rng, gen.TreeConfig{
			Internals: 1 + rng.Intn(4), MaxArity: 2, MaxDist: 3, MaxReq: 9,
		}, true)
		tasks = append(tasks, Task{Engine: MustLookup(MultipleBest), Request: Request{Instance: in}})
	}
	seq, _ := Batch(context.Background(), tasks, Options{Workers: 1})
	par, _ := Batch(context.Background(), tasks, Options{Workers: 8})
	for i := range seq {
		a, b := seq[i], par[i]
		if (a.Err == nil) != (b.Err == nil) {
			t.Fatalf("task %d: error divergence: %v vs %v", i, a.Err, b.Err)
		}
		if a.Err == nil && a.Report.Solution.NumReplicas() != b.Report.Solution.NumReplicas() {
			t.Fatalf("task %d: |R| diverged across worker counts: %d vs %d",
				i, a.Report.Solution.NumReplicas(), b.Report.Solution.NumReplicas())
		}
	}
}

// blockingEngine returns an engine that blocks until its context is
// cancelled, plus a channel that signals its first solve started.
func blockingEngine() (Engine, chan struct{}) {
	started := make(chan struct{}, 1)
	eng := NewEngine(Capabilities{Name: "test-blocking", Policy: core.Single, SupportsDMax: true},
		func(ctx context.Context, _ Request) (*core.Solution, int64, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return nil, 0, ctx.Err()
		})
	return eng, started
}

func TestBatchCancellationMidRun(t *testing.T) {
	in := nodInstance(t)
	blocker, started := blockingEngine()
	tasks := make([]Task, 8)
	for i := range tasks {
		tasks[i] = Task{Engine: blocker, Request: Request{Instance: in}}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started // first task is in flight
		cancel()
	}()
	results, st := Batch(ctx, tasks, Options{Workers: 1})
	if st.Skipped == 0 {
		t.Fatalf("expected skipped tasks after cancellation: %+v", st)
	}
	if st.Solved != 0 {
		t.Fatalf("blocking solver cannot solve: %+v", st)
	}
	for _, r := range results {
		if r.Err == nil {
			t.Fatal("every task should carry an error after cancellation")
		}
		if r.Skipped && !errors.Is(r.Err, context.Canceled) {
			t.Errorf("skipped task error = %v, want context.Canceled", r.Err)
		}
	}
}

func TestBatchPerTaskTimeout(t *testing.T) {
	in := nodInstance(t)
	blocker, _ := blockingEngine()
	tasks := []Task{
		{Engine: blocker, Request: Request{Instance: in}},
		{Engine: MustLookup(SingleGen), Request: Request{Instance: in}},
	}
	results, st := Batch(context.Background(), tasks, Options{Workers: 1, Timeout: 20 * time.Millisecond})
	if !errors.Is(results[0].Err, context.DeadlineExceeded) {
		t.Errorf("timed-out task error = %v, want deadline exceeded", results[0].Err)
	}
	if results[1].Err != nil {
		t.Errorf("fast task after a timeout should still run: %v", results[1].Err)
	}
	if st.Failed != 1 || st.Solved != 1 {
		t.Errorf("stats mismatch: %+v", st)
	}
}

func TestBatchMalformedTasks(t *testing.T) {
	in := nodInstance(t)
	results, st := Batch(context.Background(), []Task{
		{Engine: nil, Request: Request{Instance: in}},
		{Engine: MustLookup(SingleGen), Request: Request{}},
		{Engine: MustLookup(SingleGen), Request: Request{Instance: in}},
	}, Options{})
	if results[0].Err == nil || results[1].Err == nil {
		t.Fatal("nil engine / nil instance should fail their tasks")
	}
	if got, want := results[0].Err.Error(), "solver: batch task has nil solver"; got != want {
		t.Errorf("nil engine error %q, want %q", got, want)
	}
	if got, want := results[1].Err.Error(), "solver: batch task for "+SingleGen+" has nil instance"; got != want {
		t.Errorf("nil instance error %q, want %q", got, want)
	}
	if results[2].Err != nil {
		t.Errorf("well-formed task poisoned by malformed neighbours: %v", results[2].Err)
	}
	if st.Failed != 2 || st.Solved != 1 {
		t.Errorf("stats mismatch: %+v", st)
	}
}

func TestBatchEmpty(t *testing.T) {
	results, st := Batch(context.Background(), nil, Options{})
	if len(results) != 0 || st.Tasks != 0 {
		t.Errorf("empty batch mismatch: %d results, %+v", len(results), st)
	}
}
