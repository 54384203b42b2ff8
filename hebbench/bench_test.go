package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	"heb"
	"heb/internal/sim"
)

func samples(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // unsorted on purpose
	}
	return xs
}

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	cases := []struct{ n, pct int }{
		{2000, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {5, 50},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.pct {
			t.Errorf("n=%d: got p%d, want p%d", c.n, got, c.pct)
		}
	}
	v, beyond := tail(samples(1000), 95)
	if math.Abs(v-950.05) > 1e-9 || beyond != 50 {
		t.Errorf("p95 of 1..1000 = %v with %d beyond, want 950.05 with 50", v, beyond)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestFailureAccounting(t *testing.T) {
	b := &bench{}
	b.check(nil)
	b.check(errors.New("cell differs"))
	b.check(nil)
	if b.attempted != 3 || b.failed != 1 || len(b.failures) != 1 {
		t.Fatalf("attempted=%d failed=%d failures=%v, want 3/1/1", b.attempted, b.failed, b.failures)
	}

	c := cell{heb.BaOnly, "PR", referenceSeed, 1, time.Hour}
	res, err := runCell(nil, 0, c)
	if err != nil {
		t.Fatal(err)
	}
	b.ref = map[string]outcome{c.key(): outcomeOf(res)}
	if err := b.verify(c, res); err != nil {
		t.Errorf("matching result rejected: %v", err)
	}
	bad := res
	bad.EnergyEfficiency = math.Nextafter(bad.EnergyEfficiency, 2)
	if b.verify(c, bad) == nil {
		t.Error("a one-ulp EE difference passed the oracle")
	}
	short := res
	short.Steps--
	if b.verify(c, short) == nil {
		t.Error("a short run passed the oracle")
	}
	other := cell{heb.HEBD, "PR", referenceSeed, 1, time.Hour}
	if b.verify(other, res) == nil {
		t.Error("a cell without a reference passed at the reference seed")
	}
}

func TestExactRoundTrip(t *testing.T) {
	o := outcome{EE: 0.1 + 0.2, Downtime: exact(math.Inf(1)), Lifetime: exact(math.NaN()), Steps: 3, Relays: [4]int64{1, 2, 3, 4}}
	raw, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	var back outcome
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !back.equal(o) {
		t.Errorf("round trip changed %+v into %+v", o, back)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestMetricTableMatchesBenchmarkJSON pins a unit and a direction for
// every metric name, and BENCHMARK.json to the same table.
func TestMetricTableMatchesBenchmarkJSON(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if !metricUnit.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: direction %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	compare("end_to_end", cfg.EndToEnd, endToEnd)
	compare("per_layer", cfg.PerLayer, perLayer)
}

func TestReferenceCoversEveryCell(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, name := range []string{"sweep", "scale", "flight"} {
		s, err := specFor(name, referenceSeed)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range append(s.Cells, s.Probe...) {
			if _, ok := ref[c.key()]; !ok {
				t.Errorf("%s: no reference for %s", name, c.key())
			}
			keys[c.key()] = true
		}
	}
	if len(keys) != len(ref) {
		t.Errorf("reference holds %d cells, the workloads %d", len(ref), len(keys))
	}
}

func TestDispatcherHandsOutWholePasses(t *testing.T) {
	d := newDispatcher(5, 1, time.Now().Add(-time.Second), minPasses)
	var mu sync.Mutex
	seen := map[[2]int]int{}
	closedLoop(d, 2, func(_, idx, pass int) {
		mu.Lock()
		seen[[2]int{pass, idx}]++
		mu.Unlock()
	})
	// Past its deadline the loop still runs minPasses whole passes.
	if len(seen) != 5*minPasses {
		t.Fatalf("ran %d distinct (pass, cell) pairs, want %d", len(seen), 5*minPasses)
	}
	for k, n := range seen {
		if n != 1 || k[0] >= minPasses {
			t.Errorf("pass %d cell %d ran %d times", k[0], k[1], n)
		}
	}
}

// TestReplayReproducesShortCell replays a short HEB-D cell layer by layer:
// the controller must reproduce every recorded decision, and every other
// replay must stay within its divergence limit.
func TestReplayReproducesShortCell(t *testing.T) {
	for _, id := range []heb.SchemeID{heb.HEBD, heb.HEBF, heb.BaOnly} {
		in, err := recordInputs(cell{id, "PR", 7, 1, time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if len(in.steps) != 3600 || len(in.dec) == 0 {
			t.Fatalf("%v: recorded %d steps and %d decisions", id, len(in.steps), len(in.dec))
		}
		cr, err := replayCore(in, 0)
		if err != nil {
			t.Fatal(err)
		}
		if cr.slots != len(in.dec) || cr.badSlots != 0 || cr.maxRatioDiff > maxRatioDrift {
			t.Errorf("%v: controller replay diverged on %d of %d slots (ratio drift %g)", id, cr.badSlots, cr.slots, cr.maxRatioDiff)
		}
		if _, _, drift, err := replayForecast(in); err != nil || drift > maxForecastDrift {
			t.Errorf("%v: forecast replay drift %g (err %v)", id, drift, err)
		}
		er, err := replayESD(in, 0)
		if err != nil || er.drift > maxSoCDrift || er.discharges == 0 || er.charges == 0 {
			t.Errorf("%v: ESD replay drift %g with %d discharges and %d charges (err %v)", id, er.drift, er.discharges, er.charges, err)
		}
		tr, err := in.w.Trace(in.p)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, drift, err := replayPower(in, tr); err != nil || drift > maxDemandDrift {
			t.Errorf("%v: power replay drift %g (err %v)", id, drift, err)
		}
	}
}

// TestFlightOpRoundTrip records a short cell with every hook on, resumes
// it from the written chain, and checks both against the hooks-off run.
func TestFlightOpRoundTrip(t *testing.T) {
	c := cell{heb.HEBD, "MS", 3, 1, time.Hour}
	res, err := runCell(nil, 0, c)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{warm: map[string]sim.Result{c.key(): res}}
	dir := filepath.Join(t.TempDir(), "capture")
	o, err := b.flightOp(heb.NewRunCache(1), 0, c, dir, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if o.CkptRecords == 0 || o.CkptBytes == 0 || o.CaptureBytes <= o.CkptBytes || o.Steps <= res.Steps {
		t.Errorf("flight op accounted %+v", o)
	}
	bad := res
	bad.MismatchSteps++
	b.warm[c.key()] = bad
	if _, err := b.flightOp(heb.NewRunCache(1), 0, c, dir, nil); err == nil {
		t.Error("a record differing from its hooks-off run passed")
	}
}
