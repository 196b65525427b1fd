package solver

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"replicatree/internal/stats"
)

// Task is one (engine, request) pair of a batch.
type Task struct {
	// ID is an optional caller label carried into the Result.
	ID      string
	Engine  Engine
	Request Request
}

// validate rejects tasks that cannot be dispatched.
func (t Task) validate() error {
	if t.Engine == nil {
		return errors.New("solver: batch task has nil solver")
	}
	if t.Request.Instance == nil {
		return fmt.Errorf("solver: batch task for %s has nil instance", t.Engine.Name())
	}
	return nil
}

// Result is the outcome of one Task.
type Result struct {
	Task Task
	// Report is the engine's full outcome (solution, bound, gap, work,
	// proof).
	Report  Report
	Err     error
	Elapsed time.Duration
	// Skipped marks tasks never started because the batch context was
	// cancelled first; their Err is the context error.
	Skipped bool
}

// Options tunes a Batch run.
type Options struct {
	// Workers bounds the worker pool; 0 means GOMAXPROCS.
	Workers int
	// Timeout bounds each task; 0 disables per-task timeouts. A task
	// that times out reports context.DeadlineExceeded (the underlying
	// solve goroutine is abandoned, which is safe for this
	// repository's budgeted, side-effect-free solvers).
	Timeout time.Duration
}

// Stats aggregates a finished batch.
type Stats struct {
	Tasks, Solved, Failed, Skipped int
	// Replicas is the summed objective over solved tasks.
	Replicas int
	// Elapsed is the wall-clock time of the whole batch; Work is the
	// summed per-task solve time. Work/Elapsed is the parallel
	// speedup actually realised.
	Elapsed, Work time.Duration
}

// String renders a one-line summary.
func (s Stats) String() string {
	speedup := 1.0
	if s.Elapsed > 0 {
		speedup = float64(s.Work) / float64(s.Elapsed)
	}
	return fmt.Sprintf("batch: %d tasks (%d solved, %d failed, %d skipped) %d replicas wall=%v work=%v speedup=%.1fx",
		s.Tasks, s.Solved, s.Failed, s.Skipped, s.Replicas, s.Elapsed.Round(time.Microsecond), s.Work.Round(time.Microsecond), speedup)
}

// Table renders the aggregate as a stats.Table, the repository's
// experiment-output currency.
func (s Stats) Table() *stats.Table {
	t := stats.NewTable("solver batch", "tasks", "solved", "failed", "skipped", "replicas", "wall", "work")
	t.AddRow(s.Tasks, s.Solved, s.Failed, s.Skipped, s.Replicas, s.Elapsed.String(), s.Work.String())
	return t
}

// Batch solves every task over a bounded worker pool and returns the
// results in task order plus aggregate statistics. Per-task errors are
// reported in the Result, never by panicking the batch; cancelling ctx
// stops dispatch, marks undispatched tasks Skipped with the context
// error, and returns after in-flight tasks settle. Solvers are
// dispatched deterministically (task order), so any aggregation that
// consumes results in input order is independent of Workers.
func Batch(ctx context.Context, tasks []Task, opt Options) ([]Result, Stats) {
	start := time.Now()
	results := make([]Result, len(tasks))
	for i := range tasks {
		results[i] = Result{Task: tasks[i], Skipped: true}
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}

	idx := make(chan int)
	go func() {
		defer close(idx)
		for i := range tasks {
			select {
			case idx <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = runTask(ctx, tasks[i], opt)
			}
		}()
	}
	wg.Wait()

	st := Stats{Tasks: len(tasks), Elapsed: time.Since(start)}
	for i := range results {
		r := &results[i]
		if r.Skipped {
			r.Err = context.Cause(ctx)
			if r.Err == nil {
				r.Err = context.Canceled // unreachable: skips imply cancellation
			}
			st.Skipped++
			continue
		}
		st.Work += r.Elapsed
		if r.Err != nil {
			st.Failed++
			continue
		}
		st.Solved++
		if r.Report.Solution != nil {
			st.Replicas += r.Report.Solution.NumReplicas()
		}
	}
	return results, st
}

// runTask solves one task, enforcing the per-task timeout by racing
// the solve goroutine against the task context.
func runTask(ctx context.Context, t Task, opt Options) Result {
	res := Result{Task: t}
	if err := t.validate(); err != nil {
		res.Err = err
		return res
	}
	tctx := ctx
	if opt.Timeout > 0 {
		var cancel context.CancelFunc
		tctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel()
	}
	type outcome struct {
		rep Report
		err error
	}
	ch := make(chan outcome, 1)
	begin := time.Now()
	go func() {
		// Profile samples of the fan-out attribute to the engine and
		// task (go tool pprof -tags): with auto's candidate races
		// funnelling through Batch, and decomp's piece pool setting the
		// same labels, they keep per-piece/per-engine time apart.
		pprof.Do(tctx, pprof.Labels("batch_engine", t.Engine.Name(), "batch_task", t.ID), func(c context.Context) {
			rep, err := t.Engine.Solve(c, t.Request)
			ch <- outcome{rep, err}
		})
	}()
	select {
	case o := <-ch:
		res.Report, res.Err = o.rep, o.err
	case <-tctx.Done():
		// The solve may have finished in the same instant the deadline
		// fired; both select cases ready means a random pick, so drain
		// the channel and prefer the real outcome for determinism.
		select {
		case o := <-ch:
			res.Report, res.Err = o.rep, o.err
		default:
			res.Err = tctx.Err()
		}
	}
	res.Elapsed = time.Since(begin)
	return res
}
