package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestMapProgressCountsAndOrder(t *testing.T) {
	var p Progress
	n := 50
	results, err := MapTraced(context.Background(), n, 4, &p, nil, "", nil, func(_ context.Context, i int) (int, error) {
		p.AddUnits(10)
		if i == 7 || i == 33 {
			return 0, fmt.Errorf("cell %d boom", i)
		}
		return i * i, nil
	})
	if err == nil || err.Error() != "cell 7 boom" {
		t.Fatalf("err = %v, want lowest-index failure", err)
	}
	for i, r := range results {
		if i == 7 || i == 33 {
			continue
		}
		if r != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, r, i*i)
		}
	}
	s := p.Snapshot()
	if s.Total != n || s.Done != n || s.Queued != 0 || s.Active != 0 {
		t.Errorf("snapshot = %+v, want all %d done", s, n)
	}
	if s.Failed != 2 {
		t.Errorf("failed = %d, want 2", s.Failed)
	}
	if s.Units != int64(n)*10 {
		t.Errorf("units = %d, want %d", s.Units, n*10)
	}
	if s.Elapsed <= 0 {
		t.Error("elapsed not tracked")
	}
	if s.CellSeconds < 0 {
		t.Error("negative cell time")
	}
}

func TestMapProgressNilProgressIsMap(t *testing.T) {
	results, err := MapTraced[int](context.Background(), 3, 2, nil, nil, "", nil, func(_ context.Context, i int) (int, error) {
		return i + 1, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || results[2] != 3 {
		t.Fatalf("results = %v", results)
	}
}

func TestProgressActiveDuringRun(t *testing.T) {
	var p Progress
	release := make(chan struct{})
	var once sync.Once
	sawActive := make(chan int, 1)
	go func() {
		_, _ = MapTraced(context.Background(), 4, 4, &p, nil, "", nil, func(_ context.Context, i int) (struct{}, error) {
			once.Do(func() {
				// Give the other workers a moment to enter their jobs.
				time.Sleep(20 * time.Millisecond)
				sawActive <- p.Snapshot().Active
			})
			<-release
			return struct{}{}, nil
		})
	}()
	active := <-sawActive
	close(release)
	if active < 1 {
		t.Fatalf("active = %d during run, want >= 1", active)
	}
}

func TestSnapshotDerivedRates(t *testing.T) {
	s := ProgressSnapshot{CellSeconds: 8, Elapsed: 2 * time.Second, Units: 1000}
	if u := s.Utilization(4); u != 1 {
		t.Errorf("utilization = %g, want capped 1", u)
	}
	if u := s.Utilization(8); u != 0.5 {
		t.Errorf("utilization = %g, want 0.5", u)
	}
	if r := s.UnitsPerSecond(); r != 500 {
		t.Errorf("units/s = %g, want 500", r)
	}
	var zero ProgressSnapshot
	if zero.Utilization(4) != 0 || zero.UnitsPerSecond() != 0 {
		t.Error("zero snapshot rates not zero")
	}
}

func TestMapProgressCancelledCountsFailures(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var p Progress
	_, err := MapTraced(ctx, 5, 1, &p, nil, "", nil, func(ctx context.Context, i int) (int, error) {
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	// Cancelled-before-start jobs never enter a worker, so Done stays 0;
	// the snapshot still reports the full queue as Total.
	if s := p.Snapshot(); s.Total != 5 {
		t.Errorf("total = %d, want 5", s.Total)
	}
}
