package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one operation of a timed phase. Offsets are measured from
// the phase start.
type sample struct {
	due, sent, done time.Duration
	status          int
	err             error
	body            []byte // the response, kept for the oracle on sampled ops only
}

// ok reports whether the operation completed with a 2xx status.
func (s *sample) ok() bool { return s.err == nil && s.status >= 200 && s.status < 300 }

// latency is the time from the operation's due time to its
// completion; a failed operation misses every latency limit.
func (s *sample) latency() time.Duration {
	if !s.ok() {
		return time.Duration(math.MaxInt64)
	}
	return s.done - s.due
}

// doFunc performs operation i and returns its status and, when keep is
// set, its response body.
type doFunc func(ctx context.Context, i int, keep bool) (status int, body []byte, err error)

// nextOp hands a client its next operation index: the shared sequence
// when lanes is nil, otherwise client c's own lane in order (how
// session-churn keeps each session's operations ordered).
func nextOp(lanes [][]int, shared *atomic.Int64, c, k int) (int, bool) {
	if lanes == nil {
		return int(shared.Add(1) - 1), true
	}
	if k >= len(lanes[c]) {
		return 0, false
	}
	return lanes[c][k], true
}

// openLoop runs operations 0..n-1 on a fixed grid of due times, op i
// being due at i/rate after the start, over conns clients. A client
// sends an operation at its due time, or at once when it is already
// late, and latency is timed from the due time, so a stall is charged
// to every operation queued behind it. keep selects the operations
// whose response bodies are kept.
func openLoop(ctx context.Context, n int, rate float64, conns int, lanes [][]int, keep func(int) bool, do doFunc) []sample {
	res := make([]sample, n)
	interval := float64(time.Second) / rate
	var shared atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; ; k++ {
				i, more := nextOp(lanes, &shared, c, k)
				if !more || i >= n || ctx.Err() != nil {
					return
				}
				s := &res[i]
				s.due = time.Duration(float64(i) * interval)
				if wait := s.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				s.sent = time.Since(start)
				s.status, s.body, s.err = do(ctx, i, keep(i))
				s.done = time.Since(start)
			}
		}(c)
	}
	wg.Wait()
	return res
}

// closedTally is the outcome of a closed phase.
type closedTally struct {
	attempted, failed int
	// done holds the completion offsets of the successful operations
	// that finished within the phase.
	done []time.Duration
}

// closedLoop runs conns clients back to back for d, each sending its
// next operation as soon as the previous one returns. The sequence
// (or each lane) wraps around when exhausted. Operations still in
// flight at the deadline finish and are checked, but do not count as
// completed.
func closedLoop(ctx context.Context, n int, d time.Duration, conns int, lanes [][]int, do doFunc) closedTally {
	var attempted, failed atomic.Int64
	var shared atomic.Int64
	var wg sync.WaitGroup
	done := make([][]time.Duration, conns)
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Since(start) < d && ctx.Err() == nil; k++ {
				var i int
				if lanes == nil {
					i = int(shared.Add(1)-1) % n
				} else {
					if len(lanes[c]) == 0 {
						return
					}
					i = lanes[c][k%len(lanes[c])]
				}
				attempted.Add(1)
				status, _, err := do(ctx, i, false)
				s := sample{status: status, err: err, done: time.Since(start)}
				switch {
				case !s.ok():
					failed.Add(1)
				case s.done <= d:
					done[c] = append(done[c], s.done)
				}
			}
		}(c)
	}
	wg.Wait()
	t := closedTally{attempted: int(attempted.Load()), failed: int(failed.Load())}
	for _, dc := range done {
		t.done = append(t.done, dc...)
	}
	return t
}

// capacity is the median, over the windows of about a second that
// split the d after ramp, of a closed phase's completions per second,
// so a slow spell of the host over a window or two does not decide it.
// done holds completion offsets from the phase start.
func capacity(done []time.Duration, ramp, d time.Duration) float64 {
	n := max(1, int(d/time.Second))
	win := d / time.Duration(n)
	counts := make([]float64, n)
	for _, t := range done {
		if k := int((t - ramp) / win); t > ramp && k < n {
			counts[k]++
		}
	}
	return median(counts) / win.Seconds()
}

// quantile returns the q-quantile of xs by nearest rank; xs is sorted
// in place.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(k, 0)]
}

// median returns the median of xs (mean of the middle pair for an even
// count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
