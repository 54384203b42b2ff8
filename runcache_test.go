package heb

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"heb/internal/obs"
	"heb/internal/obs/alerts"
	"heb/internal/pat"
	"heb/internal/runner"
	"heb/internal/sim"
)

// sweepArtifactBytes runs a seeds × schemes grid of prototype p over d
// of PR with full observability on — probes, audits, flight-recorder
// checkpoints — and returns every artifact file the capture writes.
// With pooled=true the cells go through a shared RunCache (the zero-alloc
// reuse path), which is returned too; with pooled=false every cell
// constructs a fresh engine. The two must be byte-for-byte
// indistinguishable. HEB-S and HEB-D restore their PAT from the seeded
// image on reuse, and the per-slot checkpoint digests pin the table, so
// an image aliased to the live table or a stale copy shows up as a diff.
func sweepArtifactBytes(t *testing.T, p Prototype, d time.Duration, seeds, workers int, pooled bool) (map[string][]byte, *RunCache) {
	t.Helper()
	p.Capture = obs.NewCapture()
	p.ProbeEvery = 60
	p.Audit = obs.AuditModeReport
	p.CheckpointEvery = 1

	schemes := []SchemeID{BaOnly, HEBS, HEBD}
	cells := seeds * len(schemes)
	var cache *RunCache
	if pooled {
		cache = NewRunCache(runner.Workers(workers, cells))
	}
	_, err := runner.MapWorkers(context.Background(), cells, workers,
		func(_ context.Context, worker, i int) (sim.Result, error) {
			s, id := i/len(schemes), schemes[i%len(schemes)]
			pp := p
			pp.Seed = p.Seed + int64(s)*7919
			w, err := WorkloadNamed("PR")
			if err != nil {
				return sim.Result{}, err
			}
			w = w.WithDuration(d)
			return pp.RunWith(cache, worker, id, w, RunOptions{Duration: d})
		})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := p.Capture.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, name := range []string{"events.jsonl", "decisions.jsonl", "metrics.prom",
		"probes.jsonl", "audits.jsonl", "checkpoints.jsonl", "manifest.json"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 {
			t.Fatalf("%s is empty", name)
		}
		out[name] = b
	}
	return out, cache
}

// TestPooledSweepMatchesFreshByteForByte is the acceptance check for
// run-state pooling: across seeds and worker counts, a sweep that reuses
// engines through the RunCache must produce artifact files — events,
// decisions, probes, audits, checkpoint chains, metrics — that are
// byte-identical to a sweep constructing every engine from scratch.
// Reset paths that drift from fresh construction by even one float show
// up here as a diff in decisions.jsonl or the checkpoint hash chain.
func TestPooledSweepMatchesFreshByteForByte(t *testing.T) {
	const seeds = 3
	for _, workers := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			fresh, _ := sweepArtifactBytes(t, DefaultPrototype(), 40*time.Minute, seeds, workers, false)
			pooled, _ := sweepArtifactBytes(t, DefaultPrototype(), 40*time.Minute, seeds, workers, true)
			for name, want := range fresh {
				if !bytes.Equal(pooled[name], want) {
					t.Errorf("%s differs between fresh and pooled sweeps", name)
				}
			}
		})
	}
}

// TestPooledScaleOutMatchesFresh is the same check on the scale-out
// study's x16 cell, whose HEB-D table is seeded full to MaxEntries and,
// over two hours, learns a key and so evicts a seeded one: the restored
// image must carry the truncated seed exactly, whatever the previous run
// evicted from the live table.
func TestPooledScaleOutMatchesFresh(t *testing.T) {
	p := DefaultPrototype().scaledBy(16)
	const seeds, workers = 2, 1
	fresh, _ := sweepArtifactBytes(t, p, 2*time.Hour, seeds, workers, false)
	pooled, cache := sweepArtifactBytes(t, p, 2*time.Hour, seeds, workers, true)
	for name, want := range fresh {
		if !bytes.Equal(pooled[name], want) {
			t.Errorf("%s differs between fresh and pooled x16 sweeps", name)
		}
	}
	var st *runState
	for key, s := range cache.perWorker[0] {
		if key.scheme == HEBD {
			st = s
		}
	}
	if st == nil {
		t.Fatal("the pooled sweep cached no HEB-D state")
	}
	seeded := map[pat.Key]bool{}
	for _, e := range st.image.Entries() {
		seeded[e.Key] = true
	}
	if n, max := st.image.Len(), st.image.Config().MaxEntries; n != max {
		t.Fatalf("x16 image holds %d entries, want the full %d", n, max)
	}
	learned := 0
	for _, e := range st.table.Entries() {
		if !seeded[e.Key] {
			learned++
		}
	}
	if learned == 0 {
		t.Fatal("the x16 run added no key past the seed, so it never evicted")
	}
}

// TestRunCacheReusesState pins the pooling mechanics: the second run of
// the same structural configuration must hit the pooled state (one cache
// entry, not two) and return a result identical to the first — and a
// different seed must still reuse the same entry, since the pool key is
// seedless.
func TestRunCacheReusesState(t *testing.T) {
	p := DefaultPrototype()
	w, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	d := 30 * time.Minute
	w = w.WithDuration(d)
	opts := RunOptions{Duration: d}

	cache := NewRunCache(1)
	first, err := p.RunWith(cache, 0, HEBD, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(cache.perWorker[0]); n != 1 {
		t.Fatalf("cache holds %d entries after first run, want 1", n)
	}
	second, err := p.RunWith(cache, 0, HEBD, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(cache.perWorker[0]); n != 1 {
		t.Fatalf("cache holds %d entries after reuse, want 1", n)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatal("pooled rerun of identical configuration produced a different result")
	}

	// A different seed reuses the same structural entry.
	p2 := p
	p2.Seed = p.Seed + 7919
	if _, err := p2.RunWith(cache, 0, HEBD, w, opts); err != nil {
		t.Fatal(err)
	}
	if n := len(cache.perWorker[0]); n != 1 {
		t.Fatalf("seed change grew the cache to %d entries, want 1 (pool key is seedless)", n)
	}

	// A structural change (different scheme) gets its own entry.
	if _, err := p.RunWith(cache, 0, BaOnly, w, opts); err != nil {
		t.Fatal(err)
	}
	if n := len(cache.perWorker[0]); n != 2 {
		t.Fatalf("scheme change left %d entries, want 2", n)
	}
}

// TestRunCacheKeepsPoolsUniform checks that a reused runState keeps its
// pools on the uniform fast path across hooks-off runs, aging studies
// included.
func TestRunCacheKeepsPoolsUniform(t *testing.T) {
	p := DefaultPrototype()
	p.BatteryPreAge = 0.3
	w, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	d := 30 * time.Minute
	w = w.WithDuration(d)
	opts := RunOptions{Duration: d}

	cache := NewRunCache(1)
	uniform := func(q Prototype) (battery, supercap bool) {
		t.Helper()
		st := cache.lookup(0, q.poolKey(HEBD, q.Budget))
		if st == nil {
			t.Fatal("run left no cached state")
		}
		return st.battery.Uniform(), st.supercap.Uniform()
	}
	var results []sim.Result
	for run := 0; run < 2; run++ {
		res, err := p.RunWith(cache, 0, HEBD, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
		if ba, sc := uniform(p); !ba || !sc {
			t.Fatalf("run %d: pools uniform = %v, %v after a hooks-off run, want true", run, ba, sc)
		}
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatal("reused pre-aged run differs from the fresh one")
	}

}

// TestHooksKeepPoolsUniform checks that a pooled HEB-D run with probes
// and alerts on leaves both pools uniform: the invariant checker reads
// each member through Pool.ProbeMemberInto, never Members, so a hooks-on run
// still steps each pool once.
func TestHooksKeepPoolsUniform(t *testing.T) {
	p := DefaultPrototype()
	p.Capture = obs.NewCapture()
	p.ProbeEvery = 60
	p.Alert = alerts.ModeReport
	w, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	d := 30 * time.Minute
	cache := NewRunCache(1)
	if _, err := p.RunWith(cache, 0, HEBD, w.WithDuration(d), RunOptions{Duration: d}); err != nil {
		t.Fatal(err)
	}
	runs := p.Capture.Runs()
	if len(runs) != 1 || len(runs[0].Probes) == 0 || runs[0].Alerts == nil {
		t.Fatal("hooks-on run recorded no probes or alert report")
	}
	st := cache.lookup(0, p.poolKey(HEBD, p.Budget))
	if st == nil {
		t.Fatal("run left no cached state")
	}
	if st.battery.Size() < 2 || st.supercap.Size() < 2 {
		t.Fatalf("pools of %d and %d members cannot show per-member stepping", st.battery.Size(), st.supercap.Size())
	}
	if ba, sc := st.battery.Uniform(), st.supercap.Uniform(); !ba || !sc {
		t.Fatalf("pools uniform = %v, %v after a hooks-on run, want true", ba, sc)
	}
}

// TestRunCacheUnpoolableOptionsBypass checks the fresh-path gates:
// options that inject foreign components or leak internal state must not
// populate the cache, and a populated cache must not serve them.
func TestRunCacheUnpoolableOptionsBypass(t *testing.T) {
	p := DefaultPrototype()
	w, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	d := 30 * time.Minute
	w = w.WithDuration(d)

	cache := NewRunCache(1)
	if _, err := p.RunWith(cache, 0, HEBD, w, RunOptions{
		Duration:  d,
		TableSink: func(*pat.Table) {},
	}); err != nil {
		t.Fatal(err)
	}
	if n := len(cache.perWorker[0]); n != 0 {
		t.Fatalf("TableSink run populated the cache (%d entries); it must stay fresh", n)
	}
}

// TestRunCacheConcurrentCheckout stresses the no-locking contract under
// the race detector: many cells, many workers, one shared cache. Each
// worker index owns a private map slot and runner.MapWorkers never runs
// two jobs of the same worker concurrently, so -race must stay quiet.
func TestRunCacheConcurrentCheckout(t *testing.T) {
	p := DefaultPrototype()
	opts := MultiSeedOptions{
		Seeds:    6,
		Duration: 30 * time.Minute,
		Workload: "PR",
		Schemes:  []SchemeID{BaOnly, SCFirst, HEBD},
		Workers:  8,
	}
	par, err := MultiSeedComparison(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 1
	seq, err := MultiSeedComparison(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("pooled multi-seed summaries differ between 1 and 8 workers")
	}
}

// TestHooksOffAllocsIndependentOfRunLength is the one proof that
// observability off costs zero allocations per step for all engine
// hooks at once: a pooled HEB-D run with every hook nil allocates
// exactly its Result's SlotPeaks and SlotValleys copies at 1 h, 2 h and
// 4 h on PR, DA and MS. A hook whose nil path allocated per step or per
// slot would make the count grow with the run's length, and a key or
// closure built for a reader the run does not have would add to it.
func TestHooksOffAllocsIndependentOfRunLength(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	const want = 2
	p := DefaultPrototype()
	cache := NewRunCache(1)
	for _, name := range []string{"PR", "DA", "MS"} {
		w, err := WorkloadNamed(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []time.Duration{time.Hour, 2 * time.Hour, 4 * time.Hour} {
			wd, opts := w.WithDuration(d), RunOptions{Duration: d}
			var runErr error
			// AllocsPerRun's warm-up run grows the pooled state and
			// memoizes the trace, so only the steady state is counted.
			got := testing.AllocsPerRun(3, func() {
				if _, err := p.RunWith(cache, 0, HEBD, wd, opts); err != nil {
					runErr = err
				}
			})
			if runErr != nil {
				t.Fatal(runErr)
			}
			if got != want {
				t.Errorf("%s %v: %v allocs per pooled hooks-off run, want %d", name, d, got, want)
			}
		}
	}
}

// TestFreshHooksOffBytesIndependentOfRunLength: a fresh (uncached)
// hooks-off HEB-D run on PR builds its whole state anew, yet what it
// allocates grows by less than a byte per simulated step from 1 h to
// 4 h: the engine keeps no per-tick series. Each length takes the least
// of three runs after a warm-up that memoizes the trace.
func TestFreshHooksOffBytesIndependentOfRunLength(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	p := DefaultPrototype()
	w, err := WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	bytesFor := func(d time.Duration) uint64 {
		wd, opts := w.WithDuration(d), RunOptions{Duration: d}
		least := uint64(math.MaxUint64)
		for i := range 4 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := p.Run(HEBD, wd, opts); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; i > 0 {
				least = min(least, got)
			}
		}
		return least
	}
	short, long := bytesFor(time.Hour), bytesFor(4*time.Hour)
	steps := (4*time.Hour - time.Hour) / p.Step
	perStep := (float64(long) - float64(short)) / float64(steps)
	t.Logf("fresh run: %d B at 1 h, %d B at 4 h: %.2f B per simulated step", short, long, perStep)
	if perStep >= 1 {
		t.Errorf("fresh run allocates %.2f B per simulated step, want < 1", perStep)
	}
}
