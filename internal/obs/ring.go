package obs

import "fmt"

// Ring is a bounded FIFO keeping the newest values pushed into it; its
// storage grows on demand up to the capacity. It is not safe for
// concurrent use: owners shared across goroutines lock around it.
type Ring[T any] struct {
	capacity int
	buf      []T
	next     int // the oldest value's index once full
}

// NewRing builds a ring holding at most capacity values, which must be
// positive.
func NewRing[T any](capacity int) Ring[T] {
	if capacity <= 0 {
		panic(fmt.Sprintf("obs: ring capacity %d must be positive", capacity))
	}
	return Ring[T]{capacity: capacity}
}

// Push appends v, overwriting the oldest value once the ring is full, and
// reports whether it did.
func (r *Ring[T]) Push(v T) bool {
	if len(r.buf) < r.capacity {
		r.buf = append(r.buf, v)
		return false
	}
	r.buf[r.next] = v
	r.next++
	if r.next == r.capacity {
		r.next = 0
	}
	return true
}

// AppendTo appends every value held to dst, oldest first.
func (r *Ring[T]) AppendTo(dst []T) []T {
	return append(append(dst, r.buf[r.next:]...), r.buf[:r.next]...)
}

// Len returns the number of values held.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Last returns a copy of the newest n values, oldest first; n <= 0, or n
// above Len, returns every value held.
func (r *Ring[T]) Last(n int) []T {
	size := len(r.buf)
	if n <= 0 || n > size {
		n = size
	}
	out := make([]T, 0, n)
	if n == 0 {
		return out
	}
	start := (r.next + size - n) % size
	out = append(out, r.buf[start:min(start+n, size)]...)
	return append(out, r.buf[:n-len(out)]...)
}
