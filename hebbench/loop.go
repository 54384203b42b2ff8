package main

import (
	"math/rand"
	"sync"
	"time"
)

// dispatcher hands out the cells of a closed loop: a worker asks for its
// next cell only once its previous one returned. Cells go out in whole
// passes over the grid, each pass in a seeded shuffle, and no pass starts
// after the deadline, so every run measures the same cell mix. A minimum
// number of passes runs however slow the host is.
type dispatcher struct {
	mu       sync.Mutex
	n        int
	min      int // passes to run regardless of the deadline
	rng      *rand.Rand
	order    []int
	next     int
	deadline time.Time
	stopped  bool
}

func newDispatcher(n int, seed int64, deadline time.Time, minPasses int) *dispatcher {
	return &dispatcher{n: n, min: minPasses, rng: rand.New(rand.NewSource(seed)), deadline: deadline}
}

// minPasses is the fewest passes a timed loop runs.
const minPasses = 4

// take returns the next cell index and its pass, or ok=false once the
// deadline has passed at a pass boundary after the minimum passes.
func (d *dispatcher) take() (idx, pass int, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped {
		return 0, 0, false
	}
	if d.next%d.n == 0 {
		if d.next >= d.min*d.n && !time.Now().Before(d.deadline) {
			d.stopped = true
			return 0, 0, false
		}
		d.order = d.rng.Perm(d.n)
	}
	idx, pass = d.order[d.next%d.n], d.next/d.n
	d.next++
	return idx, pass, true
}

// closedLoop runs op on workers goroutines until the dispatcher stops and
// every started op has returned. It returns the loop's wall time and the
// time at which the first worker found no more work.
func closedLoop(d *dispatcher, workers int, op func(worker, idx, pass int)) (wall, firstIdle time.Duration) {
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	firstIdle = -1
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				idx, pass, ok := d.take()
				if !ok {
					break
				}
				op(w, idx, pass)
			}
			idle := time.Since(start)
			mu.Lock()
			if firstIdle < 0 || idle < firstIdle {
				firstIdle = idle
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return time.Since(start), firstIdle
}
