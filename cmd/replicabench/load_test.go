package main

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopChargesStall runs the open-loop scheduler against a fake
// handler that serves one request at a time and stalls 200 ms once.
// Every operation due while the stall lasts must carry the stall in its
// latency (timed from its due time), even though its own service time
// is tiny; a generator timing from the send would hide it.
func TestOpenLoopChargesStall(t *testing.T) {
	const (
		n       = 300
		rate    = 1000.0 // one op due every millisecond
		stallOp = 20
		stall   = 200 * time.Millisecond
	)
	var mu sync.Mutex
	service := make([]time.Duration, n)
	do := func(_ context.Context, i int, _ bool) (int, []byte, error) {
		mu.Lock()
		defer mu.Unlock()
		begin := time.Now()
		if i == stallOp {
			time.Sleep(stall)
		}
		service[i] = time.Since(begin)
		return 200, nil, nil
	}
	res := openLoop(context.Background(), n, rate, 2, nil, func(int) bool { return false }, do)

	stallEnd := res[stallOp].done
	if stallEnd-res[stallOp].due < stall {
		t.Fatalf("stalled op latency %v, want ≥ %v", stallEnd-res[stallOp].due, stall)
	}
	behind := 0
	for i := stallOp + 1; i < n && res[i].due < stallEnd; i++ {
		behind++
		if got, want := res[i].latency(), stallEnd-res[i].due; got < want {
			t.Errorf("op %d due %v: latency %v hides the stall (want ≥ %v)", i, res[i].due, got, want)
		}
		if service[i] > 20*time.Millisecond {
			t.Errorf("op %d: own service time %v, want it tiny", i, service[i])
		}
	}
	if behind < 150 {
		t.Fatalf("only %d ops were due during the %v stall, want ~%d", behind, stall, int(stall/time.Millisecond))
	}
	// The generator ran late behind the stall, which late_p99 reports.
	if late := res[stallOp+100].sent - res[stallOp+100].due; late < 50*time.Millisecond {
		t.Errorf("op %d sent only %v after due, want the generator to report running late", stallOp+100, late)
	}
}

// TestCapacityIgnoresASlowWindow checks the closed phase's windowed
// median: completions before the ramp ends or after the phase do not
// count, and one window at a tenth of the pace leaves it unmoved.
func TestCapacityIgnoresASlowWindow(t *testing.T) {
	const ramp, d = 500 * time.Millisecond, 5 * time.Second
	var done []time.Duration // one completion a millisecond, mid-millisecond
	for i := 0; i < 7000; i++ {
		t := time.Duration(i)*time.Millisecond + 500*time.Microsecond
		slow := t >= ramp+2*time.Second && t < ramp+3*time.Second
		if !slow || i%10 == 0 {
			done = append(done, t)
		}
	}
	if got := capacity(done, ramp, d); math.Abs(got-1000) > 1e-9 {
		t.Errorf("capacity %v ops/s, want 1000", got)
	}
	if got := capacity(done, ramp, 800*time.Millisecond); math.Abs(got-1000) > 1e-9 {
		t.Errorf("sub-second phase: capacity %v ops/s, want 1000", got)
	}
}

// TestOpenLoopLanesKeepOrder checks that pinned operations run in order
// on their lane and that every operation runs once.
func TestOpenLoopLanesKeepOrder(t *testing.T) {
	ops := make([]httpOp, 60)
	for i := range ops {
		ops[i].pin = i % 3
	}
	lanes := lanesOf(ops, 2)
	var mu sync.Mutex
	var order []int
	do := func(_ context.Context, i int, _ bool) (int, []byte, error) {
		mu.Lock()
		order = append(order, i)
		mu.Unlock()
		return 200, nil, nil
	}
	openLoop(context.Background(), len(ops), 2000, 2, lanes, func(int) bool { return false }, do)
	if len(order) != len(ops) {
		t.Fatalf("ran %d ops, want %d", len(order), len(ops))
	}
	last := map[int]int{}
	for _, i := range order {
		lane := ops[i].pin % 2
		if prev, ok := last[lane]; ok && i < prev {
			t.Fatalf("lane %d ran op %d after op %d", lane, i, prev)
		}
		last[lane] = i
	}
}
