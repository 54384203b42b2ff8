package obs

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("heb_test_total", "test counter")
	c.Inc()
	c.Add(2.5)
	c.Add(-4) // ignored: counters are monotonic
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter value = %g, want 3.5", got)
	}
	if again := r.Counter("heb_test_total", "test counter"); again != c {
		t.Fatal("Counter did not return the existing instrument")
	}

	g := r.Gauge("heb_test_watts", "test gauge")
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge value = %g, want 7", got)
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("heb_relay_total", "", Label{"position", "battery"})
	b := r.Counter("heb_relay_total", "", Label{"position", "supercap"})
	if a == b {
		t.Fatal("different label values returned the same series")
	}
	a.Add(2)
	b.Add(5)
	if v, ok := r.Get("heb_relay_total", Label{"position", "battery"}); !ok || v != 2 {
		t.Fatalf("Get(battery) = %g,%v want 2,true", v, ok)
	}
	if v, ok := r.Get("heb_relay_total", Label{"position", "supercap"}); !ok || v != 5 {
		t.Fatalf("Get(supercap) = %g,%v want 5,true", v, ok)
	}
	// Label order must not matter.
	c1 := r.Counter("heb_multi_total", "", Label{"a", "1"}, Label{"b", "2"})
	c2 := r.Counter("heb_multi_total", "", Label{"b", "2"}, Label{"a", "1"})
	if c1 != c2 {
		t.Fatal("label order changed series identity")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("heb_x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("heb_x_total", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("heb_lat_seconds", "", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 3, 10} {
		h.Observe(v)
	}
	if n, _ := r.Get("heb_lat_seconds_count"); n != 5 {
		t.Fatalf("count = %g, want 5", n)
	}
	if sum, _ := r.Get("heb_lat_seconds_sum"); sum != 16 {
		t.Fatalf("sum = %g, want 16", sum)
	}
	// Cumulative buckets: le=1 → 2 (0.5, 1), le=2 → 3, le=5 → 4, +Inf → 5.
	want := map[string]float64{
		`{le="1"}`:    2,
		`{le="2"}`:    3,
		`{le="5"}`:    4,
		`{le="+Inf"}`: 5,
	}
	for _, s := range r.Snapshot() {
		if s.Name != "heb_lat_seconds_bucket" {
			continue
		}
		if want[s.Labels] != s.Value {
			t.Errorf("bucket %s = %g, want %g", s.Labels, s.Value, want[s.Labels])
		}
		delete(want, s.Labels)
	}
	if len(want) != 0 {
		t.Fatalf("missing buckets: %v", want)
	}
}

func TestBucketHelpers(t *testing.T) {
	lin := LinearBuckets(0, 10, 3)
	if lin[0] != 0 || lin[1] != 10 || lin[2] != 20 {
		t.Fatalf("LinearBuckets = %v", lin)
	}
}

func TestWritePrometheusDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("heb_b_total", "second", Label{"k", "2"}).Add(2)
		r.Counter("heb_b_total", "second", Label{"k", "1"}).Add(1)
		r.Gauge("heb_a_watts", "first").Set(42)
		r.Histogram("heb_c_seconds", "third", []float64{1}).Observe(0.5)
		return r
	}
	var x, y bytes.Buffer
	if err := build().WritePrometheus(&x); err != nil {
		t.Fatal(err)
	}
	if err := build().WritePrometheus(&y); err != nil {
		t.Fatal(err)
	}
	if x.String() != y.String() {
		t.Fatalf("exposition not deterministic:\n%s\nvs\n%s", x.String(), y.String())
	}
	out := x.String()
	for _, want := range []string{
		"# TYPE heb_a_watts gauge",
		"# TYPE heb_b_total counter",
		"# TYPE heb_c_seconds histogram",
		`heb_b_total{k="1"} 1`,
		`heb_c_seconds_bucket{le="+Inf"} 1`,
		"heb_c_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families must come out name-sorted.
	if strings.Index(out, "heb_a_watts") > strings.Index(out, "heb_b_total") {
		t.Fatal("families not sorted by name")
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("heb_hits_total", "hits").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "heb_hits_total 1") {
		t.Fatalf("body missing sample:\n%s", rec.Body.String())
	}
}

func TestConcurrentInstrumentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("heb_par_total", "")
			h := r.Histogram("heb_par_seconds", "", []float64{1})
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(0.5)
			}
		}()
	}
	wg.Wait()
	if v, _ := r.Get("heb_par_total"); v != 8000 {
		t.Fatalf("counter = %g, want 8000", v)
	}
	if v, _ := r.Get("heb_par_seconds_count"); v != 8000 {
		t.Fatalf("histogram count = %g, want 8000", v)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("heb_esc_total", "", Label{"path", `a"b\c` + "\n"}).Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `path="a\"b\\c\n"`) {
		t.Fatalf("label not escaped:\n%s", buf.String())
	}
}
