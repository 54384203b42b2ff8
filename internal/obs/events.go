package obs

import (
	"encoding/json"
	"fmt"
	"sync"
)

// EventKind classifies the engine's discrete events.
type EventKind uint8

// The event taxonomy. Relay movements are partitioned: a switch to Off is
// a Shed, a switch from Off is a Restore, a battery<->supercap flip is a
// Handoff (the paper's "the other will take over ... immediately via power
// switches"), and every other movement is a plain RelaySwitch.
const (
	// EventRunStart marks the beginning of an engine run; Detail carries
	// the scheme name.
	EventRunStart EventKind = iota
	// EventRunEnd marks the end of an engine run.
	EventRunEnd
	// EventRelaySwitch is a relay movement between utility and a storage
	// pool.
	EventRelaySwitch
	// EventShed is a forced power-off (relay to Off).
	EventShed
	// EventRestore is a shed server coming back (relay from Off).
	EventRestore
	// EventHandoff is a battery<->supercap takeover through the relays.
	EventHandoff
	// EventChargeModeChange is a slot-boundary dispatch-mode change
	// (From/To carry the core.Mode names).
	EventChargeModeChange
	// EventMismatchBegin opens a demand-above-supply window; Watts is the
	// initial overdraw.
	EventMismatchBegin
	// EventMismatchEnd closes a mismatch window.
	EventMismatchEnd
	// EventPATHit records a slot plan served by an exact PAT entry.
	EventPATHit
	// EventPATMiss records a slot plan served by similarity fallback (or
	// an empty table).
	EventPATMiss
	// EventAlert records an SLO rule firing (internal/obs/alerts); Detail
	// carries "kind/severity" and Watts the observed value.
	EventAlert

	numEventKinds // sentinel
)

var eventKindNames = [numEventKinds]string{
	"run_start", "run_end", "relay_switch", "shed", "restore", "handoff",
	"charge_mode_change", "mismatch_begin", "mismatch_end", "pat_hit", "pat_miss",
	"alert",
}

// String names the kind as it appears in JSONL.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// ParseEventKind inverts String.
func ParseEventKind(s string) (EventKind, error) {
	for i, name := range eventKindNames {
		if name == s {
			return EventKind(i), nil
		}
	}
	return 0, fmt.Errorf("obs: unknown event kind %q", s)
}

// MarshalJSON encodes the kind as its string name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes a string kind name.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	kind, err := ParseEventKind(s)
	if err != nil {
		return err
	}
	*k = kind
	return nil
}

// Event is one typed, timestamped discrete occurrence inside a run.
type Event struct {
	// Seconds is the simulation time of the event.
	Seconds float64 `json:"t"`
	// Kind classifies the event.
	Kind EventKind `json:"kind"`
	// Server is the affected server id, -1 for cluster-level events.
	Server int `json:"server"`
	// From and To are source/mode names for switch-like events.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Watts quantifies the event where meaningful (e.g. mismatch depth).
	Watts float64 `json:"watts,omitempty"`
	// Detail is free-form context (e.g. the scheme name on run_start).
	Detail string `json:"detail,omitempty"`
	// Run labels the originating run in multi-run artifacts; empty for
	// single-run sinks.
	Run string `json:"run,omitempty"`
}

// EventSink receives engine events. Implementations must be cheap: the
// engine emits synchronously from its hot loop. A nil sink disables
// emission entirely — the engine's nil-check fast path allocates nothing.
type EventSink interface {
	Emit(Event)
}

// Log is an in-memory, bounded event sink with query helpers. It is safe
// for concurrent use.
type Log struct {
	mu      sync.Mutex
	cap     int // 0 = unbounded
	events  []Event
	dropped int
}

// NewLog builds a log keeping at most capacity events (0 = unbounded);
// events past the cap are counted in Dropped rather than stored, so a
// truncated log still reports how much it missed.
func NewLog(capacity int) *Log {
	return &Log{cap: capacity}
}

// Emit implements EventSink.
func (l *Log) Emit(e Event) {
	l.mu.Lock()
	if l.cap > 0 && len(l.events) >= l.cap {
		l.dropped++
	} else {
		l.events = append(l.events, e)
	}
	l.mu.Unlock()
}

// Len returns the number of stored events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// Dropped returns how many events the cap rejected.
func (l *Log) Dropped() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Events returns a copy of the stored events in emission order.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

// Between returns the stored events with from <= Seconds < to.
func (l *Log) Between(from, to float64) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for _, e := range l.events {
		if e.Seconds >= from && e.Seconds < to {
			out = append(out, e)
		}
	}
	return out
}

// multiSink fans one event out to several sinks.
type multiSink []EventSink

func (m multiSink) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// MultiSink composes sinks, skipping nils; it returns nil when every sink
// is nil (keeping the engine's disabled fast path) and the sink itself
// when only one remains.
func MultiSink(sinks ...EventSink) EventSink {
	var live multiSink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	default:
		return live
	}
}
