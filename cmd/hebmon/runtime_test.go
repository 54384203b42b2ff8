package main

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"

	"heb/internal/obs"
)

func TestHistogramQuantile(t *testing.T) {
	h := &metrics.Float64Histogram{
		Counts:  []uint64{10, 80, 10},
		Buckets: []float64{0, 1, 2, 3},
	}
	if q := histogramQuantile(h, 0.5); q != 1 {
		t.Errorf("p50 = %g, want 1", q)
	}
	if q := histogramQuantile(h, 0.99); q != 2 {
		t.Errorf("p99 = %g, want 2", q)
	}
	if q := histogramQuantile(h, 0.05); q != 0 {
		t.Errorf("p5 = %g, want 0", q)
	}

	empty := &metrics.Float64Histogram{Counts: []uint64{0, 0}, Buckets: []float64{0, 1, 2}}
	if q := histogramQuantile(empty, 0.5); q != 0 {
		t.Errorf("empty histogram p50 = %g, want 0", q)
	}

	// runtime histograms open with a -Inf edge: the quantile must land on
	// the nearest finite boundary, never return an infinity.
	inf := &metrics.Float64Histogram{
		Counts:  []uint64{5, 5},
		Buckets: []float64{math.Inf(-1), 1e-9, math.Inf(1)},
	}
	if q := histogramQuantile(inf, 0.5); math.IsInf(q, 0) {
		t.Errorf("p50 on infinite-edged histogram = %g", q)
	}
}

func TestRuntimeMetricsSample(t *testing.T) {
	reg := obs.NewRegistry()
	rm := newRuntimeMetrics(reg)
	runtime.GC() // ensure at least one pause lands in the histogram
	rm.sample()

	if v, ok := reg.Get("heb_runtime_gomaxprocs"); !ok || v < 1 {
		t.Errorf("gomaxprocs = %g ok=%v", v, ok)
	}
	if v, ok := reg.Get("heb_runtime_heap_goal_bytes"); !ok || v <= 0 {
		t.Errorf("heap goal = %g ok=%v", v, ok)
	}
	if v, ok := reg.Get("heb_runtime_cpu_utilization"); !ok || v < 0 || v > 1 {
		t.Errorf("cpu utilization = %g ok=%v", v, ok)
	}
	for _, q := range []string{"0.5", "0.9", "0.99"} {
		lbl := obs.Label{Name: "q", Value: q}
		if v, ok := reg.Get("heb_runtime_gc_pause_seconds", lbl); !ok || v < 0 || math.IsInf(v, 0) {
			t.Errorf("gc pause q=%s = %g ok=%v", q, v, ok)
		}
		if _, ok := reg.Get("heb_runtime_sched_latency_seconds", lbl); !ok {
			t.Errorf("sched latency q=%s missing", q)
		}
	}
}

// TestProcMetricsSample checks the heb_proc_* series of the runtime
// sampler, and that a GC-cycle reading lower than the last one leaves
// the counter where it was instead of wrapping its delta.
func TestProcMetricsSample(t *testing.T) {
	reg := obs.NewRegistry()
	rm := newRuntimeMetrics(reg)
	runtime.GC()
	rm.sample()
	if v, ok := reg.Get("heb_proc_heap_alloc_bytes"); !ok || v <= 0 {
		t.Fatalf("heap_alloc = %g, %v", v, ok)
	}
	if v, ok := reg.Get("heb_proc_heap_objects"); !ok || v <= 0 {
		t.Fatalf("heap_objects = %g, %v", v, ok)
	}
	if v, ok := reg.Get("heb_proc_goroutines"); !ok || v < 1 {
		t.Fatalf("goroutines = %g, %v", v, ok)
	}
	runs, ok := reg.Get("heb_proc_gc_runs_total")
	if !ok || runs < 1 {
		t.Fatalf("gc runs = %g, %v after runtime.GC", runs, ok)
	}

	rm.mu.Lock()
	rm.lastGCs = math.MaxUint64
	rm.mu.Unlock()
	rm.sample()
	if v, _ := reg.Get("heb_proc_gc_runs_total"); v != runs {
		t.Fatalf("gc runs moved from %g to %g on a lower reading", runs, v)
	}
}

func TestProcMetricsHandlerSamplesPerScrape(t *testing.T) {
	rec := httptest.NewRecorder()
	newMonitor(16).mux().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"heb_proc_heap_alloc_bytes",
		"heb_proc_goroutines",
		"heb_proc_gc_runs_total",
		"heb_proc_heap_objects",
		"heb_runtime_gomaxprocs",
	} {
		if !strings.Contains(body, want+" ") {
			t.Errorf("scrape missing %s", want)
		}
	}
}

// TestMetricsScrapeConcurrent hammers hebmon's /metrics endpoint from 8
// goroutines while the process allocates and GCs. Run
// under -race this pins the guarantee that per-scrape sampling is safe,
// and the final check catches counter inflation from a GC-cycle delta
// applied out of order.
func TestMetricsScrapeConcurrent(t *testing.T) {
	m := newMonitor(16)
	srv := httptest.NewServer(m.mux())
	defer srv.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sink []byte
			for i := 0; i < 20; i++ {
				// Churn the heap between scrapes so GC counters move
				// while other goroutines are mid-Sample.
				sink = make([]byte, 256<<10)
				if i == 10 {
					runtime.GC()
				}
				resp, err := http.Get(srv.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			_ = sink
		}()
	}
	wg.Wait()

	// One more clean sample: the GC-run counter must equal the runtime's
	// own count (bracketed, since a GC may finish around the sample).
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.rt.sample()
	runtime.ReadMemStats(&after)
	runs, ok := m.metrics.Get("heb_proc_gc_runs_total")
	if !ok {
		t.Fatal("heb_proc_gc_runs_total missing")
	}
	if runs < float64(before.NumGC) || runs > float64(after.NumGC) {
		t.Errorf("gc runs counter %g, runtime NumGC %d..%d", runs, before.NumGC, after.NumGC)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, family := range []string{"heb_proc_heap_alloc_bytes", "heb_runtime_gomaxprocs", "heb_runtime_gc_pause_seconds"} {
		if !strings.Contains(string(body), family) {
			t.Errorf("/metrics missing %s", family)
		}
	}
}
