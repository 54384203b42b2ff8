package pat

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"heb/internal/units"
)

func TestConfigValidate(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero bins", func(c *Config) { c.LevelBins = 0 }},
		{"zero pm bin", func(c *Config) { c.PMBinWatts = 0 }},
		{"delta zero", func(c *Config) { c.DeltaR = 0 }},
		{"delta one", func(c *Config) { c.DeltaR = 1 }},
		{"zero max entries", func(c *Config) { c.MaxEntries = 0 }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			cfg := DefaultConfig()
			m.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("Validate accepted %+v", cfg)
			}
			if _, err := New(cfg); err == nil {
				t.Error("New accepted invalid config")
			}
		})
	}
}

func TestQuantize(t *testing.T) {
	tb := MustNew(DefaultConfig()) // 10 bins, 20 W/bin
	tests := []struct {
		sc, ba float64
		pm     units.Power
		want   Key
	}{
		{0, 0, 0, Key{0, 0, 0}},
		{0.05, 0.95, 10, Key{0, 9, 0}},
		{0.5, 0.5, 100, Key{5, 5, 5}},
		{1, 1, 199, Key{9, 9, 9}},    // top fraction clamps into last bin
		{1.5, -1, -50, Key{9, 0, 0}}, // out-of-range inputs clamp
	}
	for _, tt := range tests {
		if got := tb.Quantize(tt.sc, tt.ba, tt.pm); got != tt.want {
			t.Errorf("Quantize(%g, %g, %v) = %+v, want %+v", tt.sc, tt.ba, tt.pm, got, tt.want)
		}
	}
}

func TestAddThenLookupExact(t *testing.T) {
	tb := MustNew(DefaultConfig())
	tb.Add(0.8, 0.6, 120, 0.3)
	r, exact, found := tb.Lookup(0.8, 0.6, 120)
	if !found || !exact {
		t.Fatalf("Lookup missed a just-added entry: exact=%v found=%v", exact, found)
	}
	if r != 0.3 {
		t.Errorf("ratio %g, want 0.3", r)
	}
	// Same bin, different raw values: still exact.
	r, exact, _ = tb.Lookup(0.82, 0.64, 125)
	if !exact || r != 0.3 {
		t.Errorf("same-bin lookup: exact=%v r=%g", exact, r)
	}
}

func TestLookupEmptyTable(t *testing.T) {
	tb := MustNew(DefaultConfig())
	r, exact, found := tb.Lookup(0.5, 0.5, 100)
	if found || exact {
		t.Error("empty table reported a hit")
	}
	if r != 0.5 {
		t.Errorf("empty-table default %g, want 0.5", r)
	}
}

func TestLookupSimilarFallsBackToNearest(t *testing.T) {
	tb := MustNew(DefaultConfig())
	tb.Add(0.9, 0.9, 40, 0.9)  // far in PM
	tb.Add(0.5, 0.5, 200, 0.2) // near the probe below
	r, exact, found := tb.Lookup(0.55, 0.45, 190)
	if !found {
		t.Fatal("similar lookup found nothing")
	}
	if exact {
		t.Error("lookup claims exact for a missing bin")
	}
	if r != 0.2 {
		t.Errorf("similar picked ratio %g, want 0.2 (nearest in PM)", r)
	}
}

// sortedSimilar is the reference nearest-entry search: scan the keys in
// ascending order and keep the first strictly closer one.
func sortedSimilar(t *Table, k Key) *Entry {
	keys := make([]Key, 0, len(t.entries))
	for kk := range t.entries {
		keys = append(keys, kk)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	var best *Entry
	bestDist := math.Inf(1)
	for _, kk := range keys {
		if d := keyDist(kk, k); d < bestDist {
			bestDist = d
			best = t.entries[kk]
		}
	}
	return best
}

// TestSimilarMatchesSortedScan: the one-pass scan picks exactly the entry
// a key-ordered scan picks, ties included. Keys are drawn from a small
// grid so equidistant candidates are common.
func TestSimilarMatchesSortedScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ties := 0
	for trial := 0; trial < 500; trial++ {
		tb := MustNew(DefaultConfig())
		for n := rng.Intn(40); n > 0; n-- {
			k := Key{SCLevel: rng.Intn(5), BALevel: rng.Intn(5), PMLevel: rng.Intn(6) - 1}
			tb.entries[k] = &Entry{Key: k, Ratio: rng.Float64()}
		}
		for probe := 0; probe < 20; probe++ {
			k := Key{SCLevel: rng.Intn(7) - 1, BALevel: rng.Intn(7) - 1, PMLevel: rng.Intn(8) - 1}
			got, want := tb.similar(k), sortedSimilar(tb, k)
			if got != want {
				t.Fatalf("trial %d: similar(%+v) = %+v, sorted scan = %+v", trial, k, got, want)
			}
			if want != nil && equidistant(tb, k, want.Key) {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Fatal("no equidistant candidates drawn; the tie-break went untested")
	}
}

// keyDist is similar's weighted Manhattan distance between two keys.
func keyDist(a, b Key) float64 {
	return 2*math.Abs(float64(a.PMLevel-b.PMLevel)) +
		math.Abs(float64(a.SCLevel-b.SCLevel)) +
		math.Abs(float64(a.BALevel-b.BALevel))
}

// equidistant reports whether another entry is as close to k as best.
func equidistant(t *Table, k, best Key) bool {
	for kk := range t.entries {
		if kk != best && keyDist(kk, k) == keyDist(best, k) {
			return true
		}
	}
	return false
}

func TestAddClampsRatio(t *testing.T) {
	tb := MustNew(DefaultConfig())
	tb.Add(0.5, 0.5, 100, 1.7)
	r, _, _ := tb.Lookup(0.5, 0.5, 100)
	if r != 1 {
		t.Errorf("ratio %g, want clamped to 1", r)
	}
	tb.Add(0.5, 0.5, 100, -0.3)
	r, _, _ = tb.Lookup(0.5, 0.5, 100)
	if r != 0 {
		t.Errorf("ratio %g, want clamped to 0", r)
	}
}

func TestEvictionAtCapacity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxEntries = 3
	tb := MustNew(cfg)
	tb.Add(0.1, 0.1, 20, 0.1)
	tb.Add(0.3, 0.3, 60, 0.3)
	tb.Add(0.5, 0.5, 100, 0.5)
	// Heat up two entries; the cold one (0.1) should be evicted.
	tb.Lookup(0.3, 0.3, 60)
	tb.Lookup(0.5, 0.5, 100)
	tb.Add(0.9, 0.9, 180, 0.9)
	if tb.Len() != 3 {
		t.Fatalf("table size %d, want 3", tb.Len())
	}
	if _, exact, _ := tb.Lookup(0.1, 0.1, 20); exact {
		t.Error("cold entry survived eviction")
	}
	if _, exact, _ := tb.Lookup(0.9, 0.9, 180); !exact {
		t.Error("new entry missing after eviction")
	}
}

func TestClassifyDrift(t *testing.T) {
	tests := []struct {
		name                           string
		scStart, baStart, scEnd, baEnd float64
		want                           Drift
	}{
		{"balanced", 0.8, 0.8, 0.6, 0.6, DriftNone},
		{"battery drains fast", 0.8, 0.8, 0.7, 0.4, DriftBatteryFast},
		{"sc drains fast", 0.8, 0.8, 0.3, 0.7, DriftSupercapFast},
		{"both empty", 0, 0, 0, 0, DriftNone},
		{"battery hits zero", 0.5, 0.5, 0.4, 0, DriftBatteryFast},
		{"sc hits zero", 0.5, 0.5, 0, 0.4, DriftSupercapFast},
		{"tiny noise ignored", 0.8, 0.8, 0.60, 0.605, DriftNone},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := ClassifyDrift(tt.scStart, tt.baStart, tt.scEnd, tt.baEnd)
			if got != tt.want {
				t.Errorf("ClassifyDrift = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestUpdateAdjustsRatio(t *testing.T) {
	tb := MustNew(DefaultConfig()) // Δr = 0.01
	tb.Add(0.5, 0.5, 100, 0.40)
	got := tb.Update(0.5, 0.5, 100, 0.40, DriftBatteryFast)
	if math.Abs(got-0.41) > 1e-12 {
		t.Errorf("after battery-fast update ratio %g, want 0.41", got)
	}
	got = tb.Update(0.5, 0.5, 100, 0.40, DriftSupercapFast)
	if math.Abs(got-0.40) > 1e-12 {
		t.Errorf("after sc-fast update ratio %g, want back to 0.40", got)
	}
	got = tb.Update(0.5, 0.5, 100, 0.40, DriftNone)
	if math.Abs(got-0.40) > 1e-12 {
		t.Errorf("no-drift update changed ratio to %g", got)
	}
}

func TestUpdateCreatesMissingEntry(t *testing.T) {
	tb := MustNew(DefaultConfig())
	got := tb.Update(0.7, 0.3, 150, 0.66, DriftNone)
	if math.Abs(got-0.66) > 1e-12 {
		t.Errorf("created ratio %g, want observed 0.66", got)
	}
	if tb.Len() != 1 {
		t.Errorf("table size %d, want 1", tb.Len())
	}
}

func TestUpdateRatioStaysInRangeProperty(t *testing.T) {
	f := func(steps []bool) bool {
		tb := MustNew(DefaultConfig())
		tb.Add(0.5, 0.5, 100, 0.5)
		for _, up := range steps {
			d := DriftSupercapFast
			if up {
				d = DriftBatteryFast
			}
			r := tb.Update(0.5, 0.5, 100, 0.5, d)
			if r < 0 || r > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLookupAfterAddProperty(t *testing.T) {
	// DESIGN.md invariant: lookup after Add returns the added R.
	f := func(sc, ba, ratio float64, pmRaw uint16) bool {
		if math.IsNaN(sc) || math.IsNaN(ba) || math.IsNaN(ratio) {
			return true
		}
		tb := MustNew(DefaultConfig())
		pm := units.Power(pmRaw % 400)
		tb.Add(sc, ba, pm, ratio)
		r, exact, found := tb.Lookup(sc, ba, pm)
		return found && exact && r == units.Clamp(ratio, 0, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStatsCountLookups(t *testing.T) {
	tb := MustNew(DefaultConfig())
	tb.Add(0.5, 0.5, 100, 0.5)
	tb.Lookup(0.5, 0.5, 100) // hit
	tb.Lookup(0.9, 0.1, 300) // miss (similar)
	lookups, misses := tb.Stats()
	if lookups != 2 || misses != 1 {
		t.Errorf("stats = %d/%d, want 2/1", lookups, misses)
	}
}

func TestEntriesSortedDeterministic(t *testing.T) {
	tb := MustNew(DefaultConfig())
	tb.Add(0.9, 0.1, 60, 0.2)
	tb.Add(0.1, 0.9, 180, 0.8)
	tb.Add(0.5, 0.5, 100, 0.5)
	es := tb.Entries()
	if len(es) != 3 {
		t.Fatalf("entries %d, want 3", len(es))
	}
	for i := 1; i < len(es); i++ {
		if !keyLess(es[i-1].Key, es[i].Key) {
			t.Errorf("entries not sorted at %d: %+v then %+v", i, es[i-1].Key, es[i].Key)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tb := MustNew(DefaultConfig())
	tb.Add(0.8, 0.2, 140, 0.7)
	tb.Add(0.2, 0.8, 40, 0.25)
	var buf bytes.Buffer
	if err := tb.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if back.Len() != 2 {
		t.Fatalf("loaded %d entries, want 2", back.Len())
	}
	r, exact, _ := back.Lookup(0.8, 0.2, 140)
	if !exact || r != 0.7 {
		t.Errorf("loaded entry: exact=%v r=%g", exact, r)
	}
	if _, err := Load(bytes.NewBufferString("{not json")); err == nil {
		t.Error("Load accepted garbage")
	}
	if _, err := Load(bytes.NewBufferString(`{"config":{"LevelBins":0}}`)); err == nil {
		t.Error("Load accepted invalid config")
	}
}
