package obs

import (
	"sync"
	"testing"
)

func ev(i int) Event {
	return Event{Seconds: float64(i), Kind: EventHandoff, Server: i}
}

func TestEventStreamBacklogRing(t *testing.T) {
	s := NewEventStream(4)
	for i := 0; i < 3; i++ {
		s.Emit(ev(i))
	}
	_, _, backlog := s.Subscribe(1)
	if len(backlog) != 3 || backlog[0].Seconds != 0 || backlog[2].Seconds != 2 {
		t.Fatalf("partial backlog wrong: %v", backlog)
	}

	// Overflow the ring: the backlog keeps only the newest cap events,
	// oldest first.
	for i := 3; i < 10; i++ {
		s.Emit(ev(i))
	}
	_, _, backlog = s.Subscribe(1)
	if len(backlog) != 4 {
		t.Fatalf("full backlog length %d, want 4", len(backlog))
	}
	for i, e := range backlog {
		if want := float64(6 + i); e.Seconds != want {
			t.Fatalf("backlog[%d].Seconds = %g, want %g", i, e.Seconds, want)
		}
	}
}

func TestEventStreamDeliveryAndUnsubscribe(t *testing.T) {
	s := NewEventStream(4)
	id, ch, backlog := s.Subscribe(8)
	if len(backlog) != 0 {
		t.Fatalf("fresh stream backlog %v, want empty", backlog)
	}
	s.Emit(ev(1))
	if e := <-ch; e.Seconds != 1 {
		t.Fatalf("delivered %v, want seconds=1", e)
	}
	s.Unsubscribe(id)
	if _, open := <-ch; open {
		t.Fatal("channel still open after Unsubscribe")
	}
	// An unsubscribed listener is gone: emitting neither delivers to it
	// nor counts a drop against it.
	s.Emit(ev(2))
	if got := s.Dropped(); got != 0 {
		t.Fatalf("Dropped() = %d after Unsubscribe, want 0", got)
	}
	// Double-unsubscribe is a no-op, not a double close.
	s.Unsubscribe(id)
}

func TestEventStreamDropsWhenSubscriberFull(t *testing.T) {
	s := NewEventStream(4)
	_, ch, _ := s.Subscribe(2)
	for i := 0; i < 5; i++ {
		s.Emit(ev(i))
	}
	if got := s.Dropped(); got != 3 {
		t.Fatalf("Dropped() = %d, want 3", got)
	}
	// The subscriber still holds the first two events, in order.
	if e := <-ch; e.Seconds != 0 {
		t.Fatalf("first delivered %v, want seconds=0", e)
	}
	if e := <-ch; e.Seconds != 1 {
		t.Fatalf("second delivered %v, want seconds=1", e)
	}
}

// TestEventStreamConcurrent exercises emit/subscribe/unsubscribe under
// the race detector.
func TestEventStreamConcurrent(t *testing.T) {
	s := NewEventStream(16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s.Emit(ev(i))
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id, ch, _ := s.Subscribe(4)
				select { // drain one event if any arrived; never block
				case <-ch:
				default:
				}
				s.Unsubscribe(id)
			}
		}()
	}
	wg.Wait()
	if got := s.backlog.Len(); got != 16 {
		t.Fatalf("backlog length %d, want 16 (ring full)", got)
	}
}
