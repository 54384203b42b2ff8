package pat

import (
	"bytes"
	"math"
	"math/rand"
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

// TestSimilarMatchesSortedScan: the dense table's scan picks exactly the
// entry a key-ordered scan of the reference picks, ties included. Keys
// are drawn from a small space straddling the grid's edges, so
// equidistant candidates are common and both the grid and the overflow
// path hold some of them.
func TestSimilarMatchesSortedScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ties := 0
	for trial := 0; trial < 500; trial++ {
		p := tablePair{MustNew(DefaultConfig()), newRef(DefaultConfig())}
		p.dense.Reserve(rng.Intn(5))
		for n := rng.Intn(40); n > 0; n-- {
			k := Key{SCLevel: rng.Intn(5), BALevel: rng.Intn(5), PMLevel: rng.Intn(6) - 1}
			p.fill(Entry{Key: k, Ratio: rng.Float64()})
		}
		for probe := 0; probe < 20; probe++ {
			k := Key{SCLevel: rng.Intn(7) - 1, BALevel: rng.Intn(7) - 1, PMLevel: rng.Intn(8) - 1}
			got, want := p.dense.similar(k), p.ref.sortedSimilar(k)
			if (got == nil) != (want == nil) || got != nil && *got != *want {
				t.Fatalf("trial %d: similar(%+v) = %+v, sorted scan = %+v", trial, k, got, want)
			}
			if want != nil && p.ref.equidistant(k, want.Key) {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Fatal("no equidistant candidates drawn; the tie-break went untested")
	}
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

// badTables are tables Save cannot write; Load must refuse each.
var badTables = map[string]string{
	"duplicate key": `{"config":{"LevelBins":10,"PMBinWatts":20,"DeltaR":0.01,"MaxEntries":8},"entries":[
		{"Key":{"SCLevel":1,"BALevel":2,"PMLevel":3},"Ratio":0.2,"Hits":0,"Updates":0},
		{"Key":{"SCLevel":1,"BALevel":2,"PMLevel":3},"Ratio":0.9,"Hits":0,"Updates":0}]}`,
	"over max entries": `{"config":{"LevelBins":10,"PMBinWatts":20,"DeltaR":0.01,"MaxEntries":2},"entries":[
		{"Key":{"SCLevel":1,"BALevel":1,"PMLevel":1},"Ratio":0.1},
		{"Key":{"SCLevel":2,"BALevel":2,"PMLevel":2},"Ratio":0.2},
		{"Key":{"SCLevel":3,"BALevel":3,"PMLevel":3},"Ratio":0.3}]}`,
	"sc level past bins": `{"config":{"LevelBins":10,"PMBinWatts":20,"DeltaR":0.01,"MaxEntries":8},"entries":[
		{"Key":{"SCLevel":99,"BALevel":2,"PMLevel":3},"Ratio":0.2}]}`,
	"negative ba level": `{"config":{"LevelBins":10,"PMBinWatts":20,"DeltaR":0.01,"MaxEntries":8},"entries":[
		{"Key":{"SCLevel":1,"BALevel":-4,"PMLevel":3},"Ratio":0.2}]}`,
	"negative pm level": `{"config":{"LevelBins":10,"PMBinWatts":20,"DeltaR":0.01,"MaxEntries":8},"entries":[
		{"Key":{"SCLevel":1,"BALevel":2,"PMLevel":-1},"Ratio":0.2}]}`,
	"ratio above one": `{"config":{"LevelBins":10,"PMBinWatts":20,"DeltaR":0.01,"MaxEntries":8},"entries":[
		{"Key":{"SCLevel":1,"BALevel":2,"PMLevel":3},"Ratio":7}]}`,
	"negative hits": `{"config":{"LevelBins":10,"PMBinWatts":20,"DeltaR":0.01,"MaxEntries":8},"entries":[
		{"Key":{"SCLevel":1,"BALevel":2,"PMLevel":3},"Ratio":0.2,"Hits":-3}]}`,
	"negative updates": `{"config":{"LevelBins":10,"PMBinWatts":20,"DeltaR":0.01,"MaxEntries":8},"entries":[
		{"Key":{"SCLevel":1,"BALevel":2,"PMLevel":3},"Ratio":0.2,"Updates":-1}]}`,
	"second document": `{"config":{"LevelBins":10,"PMBinWatts":20,"DeltaR":0.01,"MaxEntries":8},"entries":[]}
		{"config":{"LevelBins":10,"PMBinWatts":20,"DeltaR":0.01,"MaxEntries":8},"entries":[]}`,
	"trailing garbage": `{"config":{"LevelBins":10,"PMBinWatts":20,"DeltaR":0.01,"MaxEntries":8},"entries":[]} x`,
}

func TestLoadRejectsBadTables(t *testing.T) {
	for name, raw := range badTables {
		if tab, err := Load(bytes.NewBufferString(raw)); err == nil {
			t.Errorf("%s: Load accepted it (%d entries)", name, tab.Len())
		}
	}
}

// TestLoadKeepsOutOfGridKeys: a mismatch level past anything profiled is
// a key Quantize can produce, so Load keeps it and Lookup finds it.
func TestLoadKeepsOutOfGridKeys(t *testing.T) {
	raw := `{"config":{"LevelBins":10,"PMBinWatts":20,"DeltaR":0.01,"MaxEntries":8},"entries":[
		{"Key":{"SCLevel":9,"BALevel":0,"PMLevel":5000},"Ratio":0.25,"Hits":4,"Updates":1}]}`
	tab, err := Load(bytes.NewBufferString(raw))
	if err != nil {
		t.Fatal(err)
	}
	if r, exact, _ := tab.Lookup(0.95, 0.05, 5000*20+1); !exact || r != 0.25 {
		t.Fatalf("Lookup = %g exact=%v, want the loaded 0.25", r, exact)
	}
}

// FuzzLoad: Load either refuses its input or returns a table that
// survives a Save→Load round trip byte for byte; it never panics.
func FuzzLoad(f *testing.F) {
	tb := MustNew(Config{LevelBins: 4, PMBinWatts: 20, DeltaR: 0.01, MaxEntries: 8})
	tb.Reserve(3)
	tb.Add(0.1, 0.9, 30, 0.4)
	tb.Add(0.9, 0.1, 500, 0.7) // past the grid
	tb.Lookup(0.1, 0.9, 30)
	tb.Update(0.9, 0.1, 500, 0.7, DriftBatteryFast)
	var saved bytes.Buffer
	if err := tb.Save(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes())
	for _, raw := range badTables {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		tab, err := Load(bytes.NewReader(raw))
		if err != nil {
			return
		}
		if tab.Len() > tab.Config().MaxEntries {
			t.Fatalf("loaded %d entries past max %d", tab.Len(), tab.Config().MaxEntries)
		}
		var first, second bytes.Buffer
		if err := tab.Save(&first); err != nil {
			t.Fatal(err)
		}
		back, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Load refused Save's own output: %v\n%s", err, first.Bytes())
		}
		if err := back.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the table:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
		if back.Digest() != tab.Digest() {
			t.Fatalf("round trip changed the digest")
		}
	})
}
