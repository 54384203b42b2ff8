package obs

import "sync"

// EventStream is a live fan-out EventSink for monitoring endpoints: it
// keeps a bounded backlog ring (so a new subscriber sees recent history)
// and pushes subsequent events to subscribers over buffered channels. The
// engine emits synchronously, so delivery must never block: a subscriber
// whose channel is full loses that event, and the loss is counted
// explicitly rather than hidden. Safe for concurrent use.
type EventStream struct {
	mu      sync.Mutex
	backlog Ring[Event]
	dropped int64 // events not delivered to a slow subscriber
	subs    map[int]chan Event
	nextID  int
}

// DefaultStreamBacklog bounds the backlog handed to new subscribers.
const DefaultStreamBacklog = 1024

// NewEventStream builds a stream keeping at most backlogCap events of
// history (<= 0 selects DefaultStreamBacklog).
func NewEventStream(backlogCap int) *EventStream {
	if backlogCap <= 0 {
		backlogCap = DefaultStreamBacklog
	}
	return &EventStream{backlog: NewRing[Event](backlogCap), subs: make(map[int]chan Event)}
}

// Emit implements EventSink: record into the backlog ring and offer the
// event to every subscriber without blocking.
func (s *EventStream) Emit(e Event) {
	s.mu.Lock()
	s.backlog.Push(e)
	for _, ch := range s.subs {
		select {
		case ch <- e:
		default:
			s.dropped++
		}
	}
	s.mu.Unlock()
}

// Subscribe registers a new listener and returns its id, the live channel
// and a copy of the current backlog (oldest first). The channel holds buf
// events (<= 0 selects DefaultStreamBacklog); events emitted while it is
// full are dropped for this subscriber and counted in Dropped.
func (s *EventStream) Subscribe(buf int) (id int, ch <-chan Event, backlog []Event) {
	if buf <= 0 {
		buf = DefaultStreamBacklog
	}
	c := make(chan Event, buf)
	s.mu.Lock()
	id = s.nextID
	s.nextID++
	s.subs[id] = c
	backlog = s.backlog.Last(0)
	s.mu.Unlock()
	return id, c, backlog
}

// Unsubscribe removes a listener and closes its channel.
func (s *EventStream) Unsubscribe(id int) {
	s.mu.Lock()
	if ch, ok := s.subs[id]; ok {
		delete(s.subs, id)
		close(ch)
	}
	s.mu.Unlock()
}

// Dropped returns how many events slow subscribers missed.
func (s *EventStream) Dropped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}
