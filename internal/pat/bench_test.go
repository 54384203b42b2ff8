package pat

import (
	"testing"

	"heb/internal/units"
)

// seeded builds a full 10×10×10 table: every SC and battery level at ten
// PM bins from 10 W to 190 W, on a grid reserved for them as profiling
// reserves it.
func seeded() *Table {
	t := MustNew(DefaultConfig())
	t.Reserve(10)
	for sc := 0.05; sc < 1; sc += 0.1 {
		for ba := 0.05; ba < 1; ba += 0.1 {
			for pm := 10.0; pm < 200; pm += 20 {
				t.Add(sc, ba, units.Power(pm), 0.5)
			}
		}
	}
	return t
}

func BenchmarkLookupHit(b *testing.B) {
	t := seeded()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(0.55, 0.45, 10)
	}
}

func BenchmarkLookupSimilar(b *testing.B) {
	t := seeded()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Lookup(0.55, 0.45, 399) // misses: falls back to Similar
	}
}

func BenchmarkUpdate(b *testing.B) {
	t := seeded()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := DriftBatteryFast
		if i%2 == 0 {
			d = DriftSupercapFast
		}
		t.Update(0.55, 0.45, 10, 0.5, d)
	}
}
