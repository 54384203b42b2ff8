package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Tracer records wall-clock spans (a sweep's cells, each engine run) and
// exports them as Chrome trace-event JSON loadable in Perfetto /
// chrome://tracing, so a trace shows how a sweep's work was scheduled
// across workers. Timestamps are real elapsed time since the tracer was
// built: the set of tracks and span names is deterministic, their times
// are not. Where a run spends its time is the phase-labelled pprof
// profiles' question (hebobs prof top -by phase), not the tracer's.
type Tracer struct {
	mu     sync.Mutex
	start  time.Time
	tracks []*Track
}

// NewTracer builds a wall-clock tracer.
func NewTracer() *Tracer { return &Tracer{start: time.Now()} }

// NewTrack opens a named event track. group becomes the trace process
// (one per sweep cell), name the thread within it (one per run). Tracks
// may be created and written concurrently; each track is single-writer.
func (t *Tracer) NewTrack(group, name string) *Track {
	tr := &Track{tracer: t, group: group, name: name}
	t.mu.Lock()
	t.tracks = append(t.tracks, tr)
	t.mu.Unlock()
	return tr
}

// Track is one timeline within a tracer. Not safe for concurrent use; each
// track is written from the single goroutine running its job.
type Track struct {
	tracer *Tracer
	group  string
	name   string

	stack []span // open spans, innermost last
	spans []span
}

type span struct {
	name, cat string
	startUS   int64
	durUS     int64
	depth     int
}

// now returns the tracer's elapsed time in microseconds.
func (tr *Track) now() int64 { return time.Since(tr.tracer.start).Microseconds() }

// Begin opens a span. Spans must nest: every Begin is closed by the
// matching End in LIFO order.
func (tr *Track) Begin(name, cat string) {
	if tr == nil {
		return
	}
	tr.stack = append(tr.stack, span{name: name, cat: cat, startUS: tr.now()})
}

// End closes the innermost open span.
func (tr *Track) End() {
	if tr == nil || len(tr.stack) == 0 {
		return
	}
	top := tr.stack[len(tr.stack)-1]
	tr.stack = tr.stack[:len(tr.stack)-1]
	top.durUS, top.depth = tr.now()-top.startUS, len(tr.stack)
	tr.spans = append(tr.spans, top)
}

// TraceEvent is one Chrome trace-event object. Only the fields the
// trace-event format requires for complete ("X") and metadata ("M")
// events are modeled.
type TraceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// Events flattens the tracer into trace events in a stable order:
// tracks sorted by (group, name), pids assigned per group and tids per
// track in that order, process/thread name metadata first, then each
// track's spans in start order (outer before inner on ties).
func (t *Tracer) Events() []TraceEvent {
	t.mu.Lock()
	tracks := append([]*Track(nil), t.tracks...)
	t.mu.Unlock()
	sort.SliceStable(tracks, func(i, j int) bool {
		if tracks[i].group != tracks[j].group {
			return tracks[i].group < tracks[j].group
		}
		return tracks[i].name < tracks[j].name
	})

	var out []TraceEvent
	pids := make(map[string]int)
	tids := make(map[string]int)
	for _, tr := range tracks {
		pid, ok := pids[tr.group]
		if !ok {
			pid = len(pids) + 1
			pids[tr.group] = pid
			out = append(out, TraceEvent{
				Name: "process_name", Phase: "M", PID: pid,
				Args: map[string]any{"name": tr.group},
			})
		}
		tids[tr.group]++
		tid := tids[tr.group]
		out = append(out, TraceEvent{
			Name: "thread_name", Phase: "M", PID: pid, TID: tid,
			Args: map[string]any{"name": tr.name},
		})
		spans := append([]span(nil), tr.spans...)
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].startUS != spans[j].startUS {
				return spans[i].startUS < spans[j].startUS
			}
			return spans[i].depth < spans[j].depth
		})
		for _, s := range spans {
			out = append(out, TraceEvent{
				Name: s.name, Cat: s.cat, Phase: "X",
				TS: s.startUS, Dur: s.durUS, PID: pid, TID: tid,
			})
		}
	}
	return out
}

// WriteChromeTrace writes the tracer in Chrome trace-event JSON array
// format.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return WriteTraceEvents(w, t.Events())
}

// WriteTraceEvents writes events as a JSON array, one event per line for
// diffability.
func WriteTraceEvents(w io.Writer, events []TraceEvent) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("[\n"); err != nil {
		return fmt.Errorf("obs: write trace: %w", err)
	}
	for i, e := range events {
		b, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("obs: write trace: %w", err)
		}
		if i > 0 {
			if _, err := bw.WriteString(",\n"); err != nil {
				return fmt.Errorf("obs: write trace: %w", err)
			}
		}
		if _, err := bw.Write(b); err != nil {
			return fmt.Errorf("obs: write trace: %w", err)
		}
	}
	if _, err := bw.WriteString("\n]\n"); err != nil {
		return fmt.Errorf("obs: write trace: %w", err)
	}
	return bw.Flush()
}

// ReadChromeTrace parses a trace-event JSON array.
func ReadChromeTrace(r io.Reader) ([]TraceEvent, error) {
	var out []TraceEvent
	dec := json.NewDecoder(r)
	if err := dec.Decode(&out); err != nil {
		return nil, fmt.Errorf("obs: read trace: %w", err)
	}
	return out, nil
}

// ValidateTrace checks events against the trace-event format rules the
// viewers actually enforce: known phases, non-negative timestamps and
// durations, metadata naming, and per-thread X-event nesting (a complete
// event must either be disjoint from or fully contain any later event
// that starts inside it).
func ValidateTrace(events []TraceEvent) error {
	type tkey struct{ pid, tid int }
	open := make(map[tkey][]TraceEvent)
	for i, e := range events {
		switch e.Phase {
		case "M":
			if e.Name != "process_name" && e.Name != "thread_name" {
				return fmt.Errorf("obs: trace event %d: unknown metadata %q", i, e.Name)
			}
			if name, ok := e.Args["name"].(string); !ok || name == "" {
				return fmt.Errorf("obs: trace event %d: metadata without args.name", i)
			}
		case "X":
			if e.Name == "" {
				return fmt.Errorf("obs: trace event %d: unnamed complete event", i)
			}
			if e.TS < 0 || e.Dur < 0 {
				return fmt.Errorf("obs: trace event %d (%s): negative ts/dur", i, e.Name)
			}
			k := tkey{e.PID, e.TID}
			stack := open[k]
			for len(stack) > 0 {
				top := stack[len(stack)-1]
				if e.TS >= top.TS+top.Dur {
					stack = stack[:len(stack)-1]
					continue
				}
				if e.TS+e.Dur > top.TS+top.Dur {
					return fmt.Errorf("obs: trace event %d (%s): overlaps %s without nesting", i, e.Name, top.Name)
				}
				break
			}
			open[k] = append(stack, e)
		default:
			return fmt.Errorf("obs: trace event %d: unsupported phase %q", i, e.Phase)
		}
	}
	return nil
}
