package heb

import (
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"heb/internal/sim"
)

// TestSweepDeterminism is the acceptance check for the parallel sweep
// runner: the same grid must produce bit-for-bit identical results for
// any worker count. Each cell derives everything from its own seed and
// the runner returns results in grid order, so neither scheduling nor
// floating-point accumulation order may leak into the output.
func TestSweepDeterminism(t *testing.T) {
	p := DefaultPrototype()
	pr, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	wc, err := WorkloadNamed("WC")
	if err != nil {
		t.Fatal(err)
	}

	t.Run("Figure12", func(t *testing.T) {
		opts := Figure12Options{
			Duration:  time.Hour,
			Schemes:   []SchemeID{BaOnly, SCFirst, HEBD},
			Workloads: []Workload{pr, wc},
		}
		opts.Workers = 1
		seq, err := Figure12(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Workers = 4
		par, err := Figure12(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatal("Figure12 results differ between 1 and 4 workers")
		}
		// Figure12 reuses pooled engines across cells; each cell must
		// equal a run on a freshly built one.
		for _, sr := range seq {
			for _, w := range opts.Workloads {
				fresh, err := p.Run(sr.Scheme, w.WithDuration(opts.Duration), RunOptions{Duration: opts.Duration})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sr.Results[w.Name()], fresh) {
					t.Errorf("Figure12 %v on %s differs from a fresh Run", sr.Scheme, w.Name())
				}
			}
		}
	})

	t.Run("MultiSeed", func(t *testing.T) {
		opts := MultiSeedOptions{
			Seeds:    3,
			Duration: time.Hour,
			Workload: "PR",
			Schemes:  []SchemeID{BaOnly, HEBD},
		}
		opts.Workers = 1
		seq, err := MultiSeedComparison(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Workers = 4
		par, err := MultiSeedComparison(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatal("MultiSeedComparison summaries differ between 1 and 4 workers")
		}
	})
}

// goroutineID parses the running goroutine's id from its stack header
// ("goroutine N [running]:"). Test-only: production code never needs it.
func goroutineID() int {
	buf := make([]byte, 64)
	n := runtime.Stack(buf, false)
	fields := strings.Fields(string(buf[:n]))
	if len(fields) < 2 {
		return -1
	}
	id, err := strconv.Atoi(fields[1])
	if err != nil {
		return -1
	}
	return id
}

// TestObserverRunsOnEngineGoroutine pins down the documented contract of
// Config.Observer: the engine invokes it synchronously from whichever
// goroutine executes Run, never from a pool or helper goroutine — the
// property that lets per-run observers skip locking even inside parallel
// sweeps.
func TestObserverRunsOnEngineGoroutine(t *testing.T) {
	p := DefaultPrototype()
	w, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	d := 30 * time.Minute

	var foreign atomic.Int64 // observer calls seen off the Run goroutine
	var calls atomic.Int64
	done := make(chan error, 1)
	go func() {
		gid := goroutineID()
		_, err := p.Run(HEBD, w.WithDuration(d), RunOptions{
			Duration: d,
			Observer: func(sim.StepInfo) {
				calls.Add(1)
				if goroutineID() != gid {
					foreign.Add(1)
				}
			},
		})
		done <- err
	}()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("observer never invoked")
	}
	if n := foreign.Load(); n != 0 {
		t.Fatalf("observer invoked %d times from a goroutine other than Run's", n)
	}
}
