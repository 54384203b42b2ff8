package units

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestPowerOver(t *testing.T) {
	tests := []struct {
		name string
		p    Power
		d    time.Duration
		want Energy
	}{
		{"one watt one second", 1, time.Second, 1},
		{"kilowatt hour", Kilowatt, time.Hour, KilowattHour},
		{"zero power", 0, time.Hour, 0},
		{"negative power (charging)", -100, time.Minute, -6000},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Over(tt.d); math.Abs(float64(got-tt.want)) > 1e-9 {
				t.Errorf("Power(%v).Over(%v) = %v, want %v", tt.p, tt.d, got, tt.want)
			}
		})
	}
}

func TestEnergyPer(t *testing.T) {
	if got := KilowattHour.Per(time.Hour); math.Abs(float64(got-Kilowatt)) > 1e-9 {
		t.Errorf("KilowattHour.Per(hour) = %v, want 1kW", got)
	}
	if got := Energy(100).Per(0); got != 0 {
		t.Errorf("Per(0) = %v, want 0", got)
	}
}

func TestEnergyConversions(t *testing.T) {
	if got := WattHours(1500).KWh(); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("WattHours(1500).KWh() = %g, want 1.5", got)
	}
	if got := KilowattHour.Wh(); math.Abs(got-1000) > 1e-9 {
		t.Errorf("KilowattHour.Wh() = %g, want 1000", got)
	}
}

func TestChargeConversions(t *testing.T) {
	q := AmpereHours(8)
	if got := q.Ah(); math.Abs(got-8) > 1e-12 {
		t.Errorf("AmpereHours(8).Ah() = %g, want 8", got)
	}
	// 8 Ah at 24 V is 192 Wh.
	if got := q.At(24).Wh(); math.Abs(got-192) > 1e-9 {
		t.Errorf("8Ah at 24V = %g Wh, want 192", got)
	}
}

func TestPowerEnergyRoundTrip(t *testing.T) {
	f := func(pw float64, secs uint16) bool {
		if math.IsNaN(pw) || math.IsInf(pw, 0) || math.Abs(pw) > 1e300 {
			return true
		}
		p := Power(pw)
		d := time.Duration(int(secs)+1) * time.Second
		back := p.Over(d).Per(d)
		return math.Abs(float64(back-p)) <= 1e-9*math.Max(1, math.Abs(pw))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	tests := []struct {
		x, lo, hi, want float64
	}{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
		{0, 0, 0, 0},
		// NaN passes through, and -0 is kept: callers rely on Clamp
		// returning x bit for bit whenever it is not below lo or above hi.
		{math.NaN(), 0, 1, math.NaN()},
		{math.Copysign(0, -1), 0, 1, math.Copysign(0, -1)},
		{math.Copysign(0, -1), -1, 1, math.Copysign(0, -1)},
		{0, math.Copysign(0, -1), 0, 0},
	}
	for _, tt := range tests {
		if got := Clamp(tt.x, tt.lo, tt.hi); math.Float64bits(got) != math.Float64bits(tt.want) {
			t.Errorf("Clamp(%g, %g, %g) = %g, want %g", tt.x, tt.lo, tt.hi, got, tt.want)
		}
	}
}

func TestClampInvertedBoundsPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Clamp with inverted bounds did not panic")
		}
		if got, want := fmt.Sprint(r), "units.Clamp: inverted bounds [10, 0]"; got != want {
			t.Errorf("panic message %q, want %q", got, want)
		}
	}()
	Clamp(1, 10, 0)
}

func TestClampProperty(t *testing.T) {
	f := func(x, a, b float64) bool {
		if math.IsNaN(x) || math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		got := Clamp(x, lo, hi)
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringFormats(t *testing.T) {
	tests := []struct {
		got, want string
	}{
		{Power(5).String(), "5.0W"},
		{Power(2500).String(), "2.50kW"},
		{Power(3.2e6).String(), "3.20MW"},
		{Energy(10).String(), "10.0J"},
		{WattHours(5).String(), "5.0Wh"},
		{Energy(2 * KilowattHour).String(), "2.00kWh"},
		{Voltage(12.5).String(), "12.50V"},
		{Current(3.25).String(), "3.25A"},
		{AmpereHours(4).String(), "4.00Ah"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("String() = %q, want %q", tt.got, tt.want)
		}
	}
}
