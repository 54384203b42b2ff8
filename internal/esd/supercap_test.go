package esd

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"heb/internal/units"
)

func testSupercap(t *testing.T) *Supercap {
	t.Helper()
	s, err := NewSupercap(DefaultSupercapConfig())
	if err != nil {
		t.Fatalf("NewSupercap: %v", err)
	}
	return s
}

func TestSupercapConfigValidate(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*SupercapConfig)
	}{
		{"zero capacitance", func(c *SupercapConfig) { c.Capacitance = 0 }},
		{"inverted window", func(c *SupercapConfig) { c.VMin, c.VMax = 32, 12 }},
		{"negative vmin", func(c *SupercapConfig) { c.VMin = -1 }},
		{"zero esr", func(c *SupercapConfig) { c.ESR = 0 }},
		{"negative max power", func(c *SupercapConfig) { c.MaxPower = -1 }},
		{"negative leak", func(c *SupercapConfig) { c.SelfDischargePerHour = -1 }},
		{"dod zero", func(c *SupercapConfig) { c.DoD = 0 }},
		{"zero cycles", func(c *SupercapConfig) { c.LifeCycles = 0 }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			cfg := DefaultSupercapConfig()
			m.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("Validate() accepted invalid config %+v", cfg)
			}
		})
	}
	if err := DefaultSupercapConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestSupercapCapacity(t *testing.T) {
	s := testSupercap(t)
	// ½·300·(32² − 12²) = ½·300·880 = 132000 J ≈ 36.67 Wh.
	want := 0.5 * 300 * (32*32 - 12*12)
	if got := float64(s.Capacity()); math.Abs(got-want) > 1e-6 {
		t.Errorf("Capacity = %g J, want %g", got, want)
	}
	if soc := s.SoC(); math.Abs(soc-1) > 1e-9 {
		t.Errorf("fresh SC SoC = %g, want 1", soc)
	}
}

func TestSupercapLinearVoltageDecline(t *testing.T) {
	// Figure 5: constant-current discharge gives a linear V(t).
	s := testSupercap(t)
	cfg := s.Config()
	var vs []float64
	// Discharge at roughly constant current by tracking voltage and
	// requesting P = V·I for fixed I = 5 A.
	const amps = 5.0
	for i := 0; i < 600; i++ {
		v := float64(s.Voltage())
		if v <= float64(cfg.VMin)+2 {
			break
		}
		s.Discharge(units.Power(v*amps), time.Second)
		vs = append(vs, float64(s.Voltage()))
	}
	if len(vs) < 100 {
		t.Fatalf("discharge ended too early: %d samples", len(vs))
	}
	// Successive differences must be nearly constant (linear decline).
	d0 := vs[1] - vs[0]
	for i := 2; i < len(vs); i++ {
		d := vs[i] - vs[i-1]
		if math.Abs(d-d0) > 0.20*math.Abs(d0)+1e-6 {
			t.Fatalf("voltage decline not linear at step %d: delta %g vs %g", i, d, d0)
		}
	}
}

func TestSupercapHighRoundTripEfficiency(t *testing.T) {
	s := testSupercap(t)
	dt := time.Second
	var out units.Energy
	for s.SoC() > 0.1 {
		got := s.Discharge(200, dt)
		if got <= 0 {
			break
		}
		out += got.Over(dt)
	}
	var in units.Energy
	for i := 0; i < 7200 && s.SoC() < 0.9999; i++ {
		got := s.Charge(200, dt)
		if got <= 0 {
			break
		}
		in += got.Over(dt)
	}
	eff := float64(out) / float64(in)
	if eff < 0.88 || eff > 1.0 {
		t.Errorf("SC round-trip efficiency %.3f outside [0.88, 1.0]", eff)
	}
}

func TestSupercapBeatsBatteryEfficiency(t *testing.T) {
	// DESIGN.md invariant: SC round-trip efficiency ≥ battery's for any
	// load in the operating range.
	for _, load := range []units.Power{50, 120, 250} {
		scEff := cycleEfficiency(t, MustNewSupercap(DefaultSupercapConfig()), load)
		baEff := cycleEfficiency(t, MustNewBattery(DefaultBatteryConfig()), load)
		if scEff <= baEff {
			t.Errorf("at %v: SC efficiency %.3f <= battery %.3f", load, scEff, baEff)
		}
	}
}

// cycleEfficiency discharges ~60% of the window then recharges to full,
// returning out/in.
func cycleEfficiency(t *testing.T, d Device, load units.Power) float64 {
	t.Helper()
	dt := time.Second
	var out units.Energy
	for i := 0; i < 12*3600 && d.SoC() > 0.4; i++ {
		got := d.Discharge(load, dt)
		if got <= 0 {
			break
		}
		out += got.Over(dt)
	}
	var in units.Energy
	for i := 0; i < 48*3600 && d.SoC() < 0.999; i++ {
		got := d.Charge(load, dt)
		if got <= 0 {
			break
		}
		in += got.Over(dt)
	}
	if in <= 0 {
		t.Fatalf("device refused recharge at %v", load)
	}
	return float64(out) / float64(in)
}

func TestSupercapUnlimitedChargeCurrent(t *testing.T) {
	// The SC must absorb a deep valley far beyond any battery charge cap.
	s := testSupercap(t)
	for s.SoC() > 0.05 {
		s.Discharge(400, time.Second)
	}
	accepted := s.Charge(5000, time.Second)
	if accepted < 4000 {
		t.Errorf("SC accepted only %v of 5kW offer; should absorb nearly all", accepted)
	}
	b := MustNewBattery(DefaultBatteryConfig())
	for b.SoC() > 0.05 {
		b.Discharge(100, time.Second)
	}
	bAccepted := b.Charge(5000, time.Second)
	if bAccepted >= accepted {
		t.Errorf("battery absorbed %v >= SC %v under the same 5kW offer", bAccepted, accepted)
	}
}

func TestSupercapConverterPowerBound(t *testing.T) {
	cfg := DefaultSupercapConfig()
	cfg.MaxPower = 100
	s := MustNewSupercap(cfg)
	if got := s.Discharge(1000, time.Second); got > 100.0001 {
		t.Errorf("discharge %v exceeded converter bound 100W", got)
	}
	s.Discharge(100, time.Hour) // drain some
	if got := s.Charge(1000, time.Second); got > 100.0001 {
		t.Errorf("charge %v exceeded converter bound 100W", got)
	}
}

func TestSupercapDoDWindow(t *testing.T) {
	cfg := DefaultSupercapConfig()
	cfg.DoD = 0.5
	s := MustNewSupercap(cfg)
	full := MustNewSupercap(DefaultSupercapConfig())
	if got, want := float64(s.Capacity()), 0.5*float64(full.Capacity()); math.Abs(got-want) > 1e-6 {
		t.Errorf("50%% DoD capacity = %g, want %g", got, want)
	}
	// Drain to empty: voltage must stop at the DoD floor, above VMin.
	for i := 0; i < 7200 && !s.Depleted(); i++ {
		s.Discharge(300, time.Second)
	}
	if v := float64(s.Voltage()); v < s.vFloor()-0.1 {
		t.Errorf("voltage %g fell below DoD floor %g", v, s.vFloor())
	}
}

func TestSupercapVoltageBoundsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		s := MustNewSupercap(DefaultSupercapConfig())
		for _, op := range ops {
			p := units.Power(op % 1000)
			if op%2 == 0 {
				s.Discharge(p, time.Second)
			} else {
				s.Charge(p, time.Second)
			}
			v := float64(s.Voltage())
			if v < float64(s.cfg.VMin)-1e-9 || v > float64(s.cfg.VMax)+1e-9 {
				return false
			}
			if soc := s.SoC(); soc < 0 || soc > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSupercapEnergyConservationProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		cfg := DefaultSupercapConfig()
		cfg.SelfDischargePerHour = 0
		s := MustNewSupercap(cfg)
		stored := func() float64 {
			return 0.5 * cfg.Capacitance * (s.v*s.v - float64(cfg.VMin)*float64(cfg.VMin))
		}
		e0 := stored()
		for _, op := range ops {
			p := units.Power(op % 800)
			if op%2 == 0 {
				s.Discharge(p, time.Second)
			} else {
				s.Charge(p, time.Second)
			}
		}
		st := s.Stats()
		lhs := float64(st.EnergyIn) + e0
		rhs := float64(st.EnergyOut) + float64(st.Loss) + stored()
		return math.Abs(lhs-rhs) < 1e-3*math.Max(lhs, rhs)+1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSupercapSelfDischarge(t *testing.T) {
	cfg := DefaultSupercapConfig()
	cfg.SelfDischargePerHour = 0.01
	s := MustNewSupercap(cfg)
	before := s.Stored()
	s.Rest(24 * time.Hour)
	after := s.Stored()
	if after >= before {
		t.Errorf("no self-discharge over 24h: %v -> %v", before, after)
	}
	// ~1%/h for 24h ≈ 21% energy loss of the full window.
	frac := float64(after) / float64(before)
	if frac < 0.5 || frac > 0.95 {
		t.Errorf("self-discharge fraction after 24h = %.3f, want ~0.79", frac)
	}
}

// TestSupercapLeakMemoFollowsStepLength: the memoized leak factor tracks
// changes of dt and matches the direct expression bit for bit.
func TestSupercapLeakMemoFollowsStepLength(t *testing.T) {
	cfg := DefaultSupercapConfig()
	cfg.SelfDischargePerHour = 0.01
	s := MustNewSupercap(cfg)
	v := float64(cfg.VMax)
	for _, dt := range []time.Duration{time.Second, time.Second, 2 * time.Second, time.Second, time.Minute, time.Second} {
		s.Rest(dt)
		v *= math.Sqrt(math.Pow(1-cfg.SelfDischargePerHour, dt.Seconds()/3600))
		if got := float64(s.Voltage()); got != v {
			t.Fatalf("after Rest(%v) voltage %v, want %v", dt, got, v)
		}
	}
}

func TestSupercapResetRestoresFull(t *testing.T) {
	s := testSupercap(t)
	s.Discharge(500, time.Minute)
	s.Reset()
	if soc := s.SoC(); math.Abs(soc-1) > 1e-9 {
		t.Errorf("after Reset SoC = %g, want 1", soc)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Errorf("after Reset stats = %+v, want zero", st)
	}
}

func TestSupercapNoThroughputAh(t *testing.T) {
	s := testSupercap(t)
	s.Discharge(200, time.Minute)
	if st := s.Stats(); st.ThroughputAh != 0 || st.WeightedAh != 0 {
		t.Errorf("SC recorded battery wear: %+v", st)
	}
}

func TestSupercapProbeAvailClampsAtEmpty(t *testing.T) {
	cfg := DefaultSupercapConfig()
	cfg.DoD = 0.8
	s, err := NewSupercap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Drain to the window floor, then let self-discharge rest the
	// voltage below it.
	for i := 0; i < 10000 && !s.Depleted(); i++ {
		s.Discharge(2000, time.Second)
	}
	if !s.Depleted() {
		t.Fatal("supercap never depleted")
	}
	s.Rest(48 * time.Hour)
	if v, vf := float64(s.Voltage()), s.vFloor(); v >= vf {
		t.Fatalf("leak did not rest voltage (%g V) below the window floor (%g V); test lost its point", v, vf)
	}
	snap := s.ProbeSnapshot()
	if snap.AvailAh != 0 {
		t.Errorf("available charge %g Ah below the empty window, want exactly 0", snap.AvailAh)
	}
	if snap.SoC != 0 {
		t.Errorf("SoC %g on a rested-empty device", snap.SoC)
	}
}
