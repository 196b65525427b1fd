package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. A span whose parent is -1 is a
// root: either an operation ("op") or a probe, a separate call that
// times a step the handler performs inside another layer's call
// (Validate inside the JSON decode, FlattenInto inside Engine.Solve).
// Probes are reported as shares but never summed into the accounting.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Conn   int    `json:"conn"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how warm-up traffic runs the same code
// path untraced.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent, op, conn int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Conn: conn, Name: name, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// child opens a span under parent, for the same operation and
// connection.
func (t *tracer) child(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	p := t.spans[parent]
	t.mu.Unlock()
	return t.begin(name, parent, p.Op, p.Conn)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children may overlap each
// other (the union is subtracted once) and are clipped to the parent;
// spans of other operations or connections that merely overlap in time
// are not children and subtract nothing.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			kids[p] = append(kids[p], i)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		ch := kids[i]
		sort.Slice(ch, func(a, b int) bool { return spans[ch[a]].Start < spans[ch[b]].Start })
		var covered int64
		lo, hi := int64(0), int64(-1) // current merged interval; empty while hi < lo
		for _, c := range ch {
			cs, ce := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if ce <= cs {
				continue
			}
			if cs > hi {
				if hi > lo {
					covered += hi - lo
				}
				lo, hi = cs, ce
			} else if ce > hi {
				hi = ce
			}
		}
		if hi > lo {
			covered += hi - lo
		}
		self[i] = s.dur() - covered
	}
	return self
}

// spanCost measures the tracer's own cost per span (a begin/end pair),
// for the tracing-overhead share.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	t.spans = make([]span, 0, n)
	begin := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("calibrate", -1, i, 0))
	}
	return time.Since(begin) / n
}

// saveTrace writes the run's spans, one JSON object per line, to
// trace-<workload>.jsonl in the trace directory.
func saveTrace(cfg config, tr *tracer, ops int) error {
	if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.traceDir, "trace-"+cfg.workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range tr.spans {
		if err := enc.Encode(&tr.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(cfg.log, "trace: %d spans over %d ops written to %s\n", len(tr.spans), ops, path)
	return nil
}
