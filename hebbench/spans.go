package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// cell share Cell; Parent is the enclosing span's ID, -1 for a root.
// Count is how many layer calls the span covers. Busy, when set, is the
// time spent inside those calls where the span also covers other work
// (a replay loop that interleaves calls into two layers); otherwise the
// span's own duration is the layer's time.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Cell   int    `json:"cell"`
	Count  int64  `json:"count,omitempty"`
	Busy   int64  `json:"busy_ns,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths pay one nil check per span.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	cells int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newCell returns a fresh cell ID.
func (t *tracer) newCell() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cells++
	return t.cells
}

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, cell int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, Parent: parent, Cell: cell})
	return id
}

// end closes span id, covering count layer calls that took busy ns in
// total (busy 0: the span's duration).
func (t *tracer) end(id int, count, busy int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End, s.Count, s.Busy = now, count, busy
}

// add records an already measured layer total as a closed child span.
func (t *tracer) add(name string, parent, cell int, count, busy int64) {
	t.end(t.begin(name, parent, cell), count, busy)
}

// durations returns the duration in ms of every span named name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
