package esd

import (
	"math"
	"testing"
	"time"
)

func thermalBattery(t *testing.T) *Battery {
	t.Helper()
	cfg := DefaultBatteryConfig()
	cfg.Thermal = DefaultThermalConfig()
	return MustNewBattery(cfg)
}

func TestThermalConfigValidate(t *testing.T) {
	if err := (ThermalConfig{}).Validate(); err != nil {
		t.Errorf("zero (disabled) config rejected: %v", err)
	}
	if (ThermalConfig{}).Enabled() {
		t.Error("zero config claims enabled")
	}
	if err := DefaultThermalConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*ThermalConfig)
	}{
		{"inverted window", func(c *ThermalConfig) { c.ShutdownC = c.DerateStartC - 1 }},
		{"derate below ambient", func(c *ThermalConfig) { c.DerateStartC = c.AmbientC - 5 }},
		{"zero doubling", func(c *ThermalConfig) { c.WearDoublingC = 0 }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			cfg := DefaultThermalConfig()
			m.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("accepted %s", m.name)
			}
		})
	}
}

func TestBatteryStartsAtAmbient(t *testing.T) {
	b := thermalBattery(t)
	cur, peak := b.Thermal()
	if cur != 25 || peak != 25 {
		t.Errorf("fresh battery at %g/%g °C, want ambient 25", cur, peak)
	}
	// Disabled thermal reports ambient too.
	plain := MustNewBattery(DefaultBatteryConfig())
	if cur, _ := plain.Thermal(); cur != DefaultBatteryConfig().Thermal.AmbientC {
		t.Errorf("disabled thermal reports %g", cur)
	}
}

func TestBatteryHeatsUnderLoad(t *testing.T) {
	b := thermalBattery(t)
	for i := 0; i < 1200; i++ {
		b.Discharge(150, time.Second)
		if b.Depleted() {
			break
		}
	}
	cur, peak := b.Thermal()
	if cur <= 25.5 {
		t.Errorf("battery did not heat under 150W: %g °C", cur)
	}
	if peak < cur {
		t.Errorf("peak %g below current %g", peak, cur)
	}
}

func TestBatteryCoolsAtRest(t *testing.T) {
	b := thermalBattery(t)
	for i := 0; i < 1200 && !b.Depleted(); i++ {
		b.Discharge(150, time.Second)
	}
	hot, _ := b.Thermal()
	b.Rest(2 * time.Hour)
	cooled, _ := b.Thermal()
	if cooled >= hot {
		t.Errorf("no cooling at rest: %g -> %g", hot, cooled)
	}
	if math.Abs(cooled-25) > 1 {
		t.Errorf("after 4 time constants temperature %g, want near ambient", cooled)
	}
}

func TestHotBatteryChargesSlower(t *testing.T) {
	// The paper's Section 1 claim: overheating limits charging current.
	cold := thermalBattery(t)
	hot := thermalBattery(t)
	cold.SetSoC(0.3)
	hot.SetSoC(0.3)
	// Force the hot battery's temperature into the derating band.
	hot.thermal.tempC = 47

	coldAccept := cold.Charge(500, time.Second)
	hotAccept := hot.Charge(500, time.Second)
	if hotAccept >= coldAccept {
		t.Errorf("hot battery accepted %v >= cold %v", hotAccept, coldAccept)
	}
	if hot.MaxChargePower() >= cold.MaxChargePower() {
		t.Error("MaxChargePower does not reflect thermal derating")
	}
	// At shutdown temperature, charging stops entirely.
	hot.thermal.tempC = 60
	if got := hot.Charge(500, time.Second); got != 0 {
		t.Errorf("overheated battery accepted %v", got)
	}
}

func TestHotBatteryWearsFaster(t *testing.T) {
	cold := thermalBattery(t)
	hot := thermalBattery(t)
	hot.thermal.tempC = 45 // 20°C above reference: 4x aging
	cold.Discharge(100, time.Minute)
	hot.Discharge(100, time.Minute)
	cw, hw := cold.Wear(), hot.Wear()
	if math.Abs(cw.ThroughputAh-hw.ThroughputAh) > 0.01*cw.ThroughputAh {
		t.Fatalf("raw throughput should match: %g vs %g", cw.ThroughputAh, hw.ThroughputAh)
	}
	ratio := hw.WeightedAh / cw.WeightedAh
	if ratio < 2.5 || ratio > 5 {
		t.Errorf("hot/cold wear ratio %.2f, want ~4 (Arrhenius at +20°C)", ratio)
	}
}

func TestChargeDerateCurve(t *testing.T) {
	cfg := DefaultThermalConfig()
	st := newThermalState(cfg)
	st.tempC = 30
	if got := st.chargeDerate(&cfg); got != 1 {
		t.Errorf("derate at 30°C = %g, want 1", got)
	}
	st.tempC = 47.5 // midpoint of [40, 55]
	if got := st.chargeDerate(&cfg); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("derate at midpoint = %g, want 0.5", got)
	}
	st.tempC = 60
	if got := st.chargeDerate(&cfg); got != 0 {
		t.Errorf("derate at 60°C = %g, want 0", got)
	}
}

func TestThermalSteadyStateMatchesDissipation(t *testing.T) {
	cfg := DefaultThermalConfig()
	st := newThermalState(cfg)
	// 4W dissipated at 2.5 °C/W: steady state = 25 + 10 = 35 °C.
	for i := 0; i < 8*1800; i++ {
		st.advance(&cfg, 4, 1)
	}
	if math.Abs(st.tempC-35) > 0.5 {
		t.Errorf("steady state %g °C, want 35", st.tempC)
	}
}

func TestThermalDisabledIsInert(t *testing.T) {
	var cfg ThermalConfig
	st := newThermalState(cfg)
	st.advance(&cfg, 100, 3600)
	if st.tempC != 0 {
		t.Errorf("disabled thermal state moved to %g", st.tempC)
	}
	if st.chargeDerate(&cfg) != 1 || st.wearMultiplier(cfg) != 1 {
		t.Error("disabled thermal affects operation")
	}
}
