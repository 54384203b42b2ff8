package core

import (
	"fmt"
	"reflect"
	"testing"

	"heb/internal/pat"
	"heb/internal/units"
)

// referenceSeed is the profiling loop without the eviction shortcut: it
// inserts every bin through Table.Add and lets the table evict.
func referenceSeed(t *pat.Table, scCap units.Energy, maxPM units.Power, noise float64) int {
	cfg := t.Config()
	added := 0
	pmBins := int(float64(maxPM)/cfg.PMBinWatts) + 1
	for si := 0; si < cfg.LevelBins; si++ {
		for bi := 0; bi < cfg.LevelBins; bi++ {
			for pi := 0; pi < pmBins; pi++ {
				scFrac := (float64(si) + 0.5) / float64(cfg.LevelBins)
				baFrac := (float64(bi) + 0.5) / float64(cfg.LevelBins)
				pm := units.Power((float64(pi) + 0.5) * cfg.PMBinWatts)
				r := HorizonRatio(units.Energy(scFrac*float64(scCap)), pm, DefaultPlanningHorizon)
				if noise > 0 {
					r = units.Clamp(r+noise*hashNoise(si, bi, pi), 0, 1)
				}
				t.Add(scFrac, baFrac, pm, r)
				added++
			}
		}
	}
	return added
}

// pooledTable returns a table that has served a run: seeded at a larger
// mismatch range, then hit and updated, so that Reset parks a
// spare set for the next seeding to recycle.
func pooledTable(cfg pat.Config, scCap units.Energy, noise float64) *pat.Table {
	t := pat.MustNew(cfg)
	SeedPAT(t, scCap, 0, 300, DefaultBatteryDerate, noise)
	for i := 0; i < 40; i++ {
		f := float64(i%10) / 10
		t.Lookup(f, 1-f, units.Power(i*7))
		t.Update(f, f, units.Power(i*11), 0.3, pat.DriftBatteryFast)
	}
	t.Reset()
	return t
}

// TestSeedPATMatchesEvictingReference: seeding only the surviving window
// leaves the table exactly as inserting every bin with eviction does, for
// fresh and pooled tables and with or without profiling noise.
func TestSeedPATMatchesEvictingReference(t *testing.T) {
	const maxPM = 140 // 8 PM bins: 800 bins at the default 10 levels
	scCap := units.WattHours(36)
	total := 10 * 10 * 8
	for _, maxEntries := range []int{1, 50, total - 1, total, 4096} {
		for _, noise := range []float64{0, 0.22} {
			for _, pooled := range []bool{false, true} {
				name := fmt.Sprintf("max%d/noise%g/pooled=%v", maxEntries, noise, pooled)
				t.Run(name, func(t *testing.T) {
					cfg := pat.DefaultConfig()
					cfg.MaxEntries = maxEntries
					got, want := pat.MustNew(cfg), pat.MustNew(cfg)
					if pooled {
						got, want = pooledTable(cfg, scCap, noise), pooledTable(cfg, scCap, noise)
					}
					n := SeedPAT(got, scCap, 0, maxPM, DefaultBatteryDerate, noise)
					wantN := referenceSeed(want, scCap, maxPM, noise)
					if n != wantN || n != total {
						t.Fatalf("SeedPAT returned %d, reference %d, want %d", n, wantN, total)
					}
					if g, w := got.Entries(), want.Entries(); !reflect.DeepEqual(g, w) {
						t.Fatalf("tables differ: %d entries vs reference %d", len(g), len(w))
					}
					if got.Len() != min(total, maxEntries) {
						t.Fatalf("kept %d entries, want %d", got.Len(), min(total, maxEntries))
					}
				})
			}
		}
	}
}

// TestSeedPATScaleOutWindow pins the x16 HEB-D seeding: 11,300 bins
// profiled, the highest-keyed 4096 kept, so SC levels 0-5 start empty.
func TestSeedPATScaleOutWindow(t *testing.T) {
	got, want := pat.MustNew(pat.DefaultConfig()), pat.MustNew(pat.DefaultConfig())
	n := SeedPAT(got, units.WattHours(16*36), 0, 16*140, DefaultBatteryDerate, 0.22)
	if wantN := referenceSeed(want, units.WattHours(16*36), 16*140, 0.22); n != wantN || n != 11300 {
		t.Fatalf("SeedPAT returned %d, reference %d, want 11300", n, wantN)
	}
	entries := got.Entries()
	if !reflect.DeepEqual(entries, want.Entries()) {
		t.Fatal("x16 table differs from the evicting reference")
	}
	if first := entries[0].Key; first.SCLevel != 6 {
		t.Fatalf("lowest kept key %+v, want SC level 6", first)
	}
}

func BenchmarkSeedPAT(b *testing.B) {
	for _, scale := range []int{1, 16} {
		b.Run(fmt.Sprintf("x%d", scale), func(b *testing.B) {
			t := pat.MustNew(pat.DefaultConfig())
			scCap := units.WattHours(36 * float64(scale))
			maxPM := units.Power(140 * scale)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t.Reset()
				SeedPAT(t, scCap, 0, maxPM, DefaultBatteryDerate, 0.22)
			}
		})
	}
}
