package main

import (
	"sync"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// Connection 0, op 0: a root with overlapping children, a
		// grandchild, and a child that runs past the root's end.
		{ID: 0, Parent: -1, Op: 0, Conn: 0, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 0, Conn: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Op: 0, Conn: 0, Name: "b", Start: 30, End: 60},
		{ID: 3, Parent: 1, Op: 0, Conn: 0, Name: "a.inner", Start: 15, End: 20},
		{ID: 4, Parent: 0, Op: 0, Conn: 0, Name: "c", Start: 90, End: 120},
		// Connection 1, op 1, overlapping op 0 in time: it must neither
		// take nor give self time across the connections.
		{ID: 5, Parent: -1, Op: 1, Conn: 1, Name: "op", Start: 20, End: 80},
		{ID: 6, Parent: 5, Op: 1, Conn: 1, Name: "a", Start: 50, End: 70},
		// A probe: a root of its own, no children.
		{ID: 7, Parent: -1, Op: 0, Conn: 0, Name: "probe", Start: 130, End: 137},
	}
	want := []int64{
		100 - (50 + 10), // [10,60] ∪ [90,100]: b overlaps a, c is clipped
		30 - 5,          // minus its grandchild
		30,
		5,
		30, // a span's own self time is not clipped
		60 - 20,
		20,
		7,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
}

// TestTracerConcurrentConnections records spans from two connections
// at once and checks that each root's self time plus its child's equals
// the root's duration: interleaved spans of the other connection never
// count as children.
func TestTracerConcurrentConnections(t *testing.T) {
	tr := newTracer()
	var wg sync.WaitGroup
	for conn := 0; conn < 2; conn++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for op := 0; op < 50; op++ {
				root := tr.begin("op", -1, op, conn)
				sp := tr.child("stage", root)
				time.Sleep(50 * time.Microsecond)
				tr.end(sp)
				tr.end(root)
			}
		}(conn)
	}
	wg.Wait()
	self := selfTimes(tr.spans)
	roots := 0
	for i, s := range tr.spans {
		if s.Parent >= 0 {
			continue
		}
		roots++
		var child int64
		for j, c := range tr.spans {
			if c.Parent == i {
				if c.Conn != s.Conn || c.Op != s.Op {
					t.Fatalf("child %d of root %d is on conn %d op %d, root on conn %d op %d", j, i, c.Conn, c.Op, s.Conn, s.Op)
				}
				child += self[j]
			}
		}
		if self[i]+child != s.dur() {
			t.Errorf("root %d: self %d + child %d != duration %d", i, self[i], child, s.dur())
		}
	}
	if roots != 100 {
		t.Fatalf("%d roots, want 100", roots)
	}
}
