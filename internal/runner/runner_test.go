package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdersResults(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got, err := MapWorkers(context.Background(), 33, workers, func(_ context.Context, _, i int) (int, error) {
			// Finish out of submission order on purpose.
			time.Sleep(time.Duration((33-i)%5) * time.Millisecond)
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 33 {
			t.Fatalf("workers=%d: %d results, want 33", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapReportsLowestIndexError(t *testing.T) {
	// Several jobs fail; regardless of scheduling the reported error must
	// be the lowest-index one. Run repeatedly to shake out interleavings.
	for trial := 0; trial < 20; trial++ {
		_, err := MapWorkers(context.Background(), 16, 4, func(_ context.Context, _, i int) (int, error) {
			if i == 3 || i == 5 || i == 11 {
				return 0, fmt.Errorf("job %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "job 3 failed" {
			t.Fatalf("trial %d: err = %v, want job 3 failed", trial, err)
		}
	}
}

func TestMapRunsAllJobsDespiteErrors(t *testing.T) {
	var ran atomic.Int64
	_, err := MapWorkers(context.Background(), 10, 3, func(_ context.Context, _, i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("first job fails")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if n := ran.Load(); n != 10 {
		t.Fatalf("ran %d jobs, want all 10 (grid cells are independent)", n)
	}
}

func TestMapCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	var started atomic.Int64
	done := make(chan struct{})
	var results []int
	var err error
	go func() {
		defer close(done)
		results, err = MapWorkers(ctx, 100, 2, func(ctx context.Context, _, i int) (int, error) {
			started.Add(1)
			select {
			case <-release:
			case <-ctx.Done():
				return 0, ctx.Err()
			}
			return i + 1, nil
		})
	}()
	// Let a couple of jobs start, then cancel and release everyone.
	for started.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release)
	<-done

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if int(started.Load()) == 100 {
		t.Fatal("cancellation did not stop dispatch: all 100 jobs started")
	}
	if len(results) != 100 {
		t.Fatalf("partial results slice has %d entries, want full length 100", len(results))
	}
}

func TestMapPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := 0
	_, err := MapWorkers(ctx, 5, 1, func(_ context.Context, _, i int) (int, error) {
		ran++
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 0 {
		t.Fatalf("%d jobs ran on a pre-cancelled context, want 0", ran)
	}
}

func TestMapZeroJobs(t *testing.T) {
	got, err := MapWorkers(context.Background(), 0, 4, func(_ context.Context, _, i int) (int, error) {
		t.Fatal("fn must not run")
		return 0, nil
	})
	if err != nil || got != nil {
		t.Fatalf("got %v, %v; want nil, nil", got, err)
	}
}

func TestWorkers(t *testing.T) {
	cases := []struct{ req, n, want int }{
		{0, 100, runtime.GOMAXPROCS(0)},
		{-3, 100, runtime.GOMAXPROCS(0)},
		{4, 2, 2},
		{4, 100, 4},
		{1, 0, 1},
	}
	for _, c := range cases {
		if got := Workers(c.req, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.req, c.n, got, c.want)
		}
	}
}

// TestMapRaceExercise hammers the pool with shared-state mutation guarded
// by a mutex under GOMAXPROCS > 1; `go test -race ./internal/runner`
// exercises the pool's internal synchronization (result slice writes,
// the dispatch counter, the completion barrier).
func TestMapRaceExercise(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	if prev < 2 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	var mu sync.Mutex
	seen := make(map[int]bool)
	results, err := MapWorkers(context.Background(), 500, 8, func(_ context.Context, _, i int) (int, error) {
		mu.Lock()
		seen[i] = true
		mu.Unlock()
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 500 {
		t.Fatalf("saw %d distinct jobs, want 500", len(seen))
	}
	for i, v := range results {
		if v != i {
			t.Fatalf("results[%d] = %d", i, v)
		}
	}
}
