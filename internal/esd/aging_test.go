package esd

import (
	"math"
	"testing"
	"time"
)

func agingConfig() BatteryConfig {
	cfg := DefaultBatteryConfig()
	cfg.FadeAtEOL = 0.25
	cfg.ResistanceGrowthAtEOL = 1.0
	return cfg
}

func TestAgingConfigValidation(t *testing.T) {
	cfg := DefaultBatteryConfig()
	cfg.FadeAtEOL = 0.8
	if err := cfg.Validate(); err == nil {
		t.Error("accepted fade 0.8")
	}
	cfg = DefaultBatteryConfig()
	cfg.ResistanceGrowthAtEOL = -1
	if err := cfg.Validate(); err == nil {
		t.Error("accepted negative resistance growth")
	}
	if err := agingConfig().Validate(); err != nil {
		t.Errorf("aging config rejected: %v", err)
	}
}

func TestPreAgeShrinksCapacity(t *testing.T) {
	fresh := MustNewBattery(agingConfig())
	aged := MustNewBattery(agingConfig())
	aged.PreAge(0.8)

	fc, ac := float64(fresh.Capacity()), float64(aged.Capacity())
	// 80% of life at 25% EOL fade: capacity x (1 - 0.25*0.8) = 0.8.
	if math.Abs(ac/fc-0.8) > 0.01 {
		t.Errorf("aged/fresh capacity %g, want 0.80", ac/fc)
	}
	// SoC is preserved through PreAge.
	if soc := aged.SoC(); math.Abs(soc-1) > 1e-6 {
		t.Errorf("aged battery SoC %g, want 1 (same as before aging)", soc)
	}
	if got := aged.lifeFraction(); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("life fraction %g, want 0.8", got)
	}
	// Clamping.
	aged.PreAge(5)
	if got := aged.lifeFraction(); got != 1 {
		t.Errorf("over-aged life fraction %g, want 1", got)
	}
}

func TestAgedBatteryDeliversLess(t *testing.T) {
	drain := func(pre float64) float64 {
		b := MustNewBattery(agingConfig())
		b.PreAge(pre)
		var total float64
		for i := 0; i < 12*3600; i++ {
			got := b.Discharge(100, time.Second)
			if got < 99 {
				break
			}
			total += float64(got)
		}
		return total
	}
	fresh := drain(0)
	aged := drain(0.8)
	if fresh <= 0 || aged <= 0 {
		t.Fatal("no delivery")
	}
	ratio := aged / fresh
	if ratio > 0.85 {
		t.Errorf("aged battery delivered %.2f of fresh; fade too weak", ratio)
	}
}

func TestAgedBatterySagsMore(t *testing.T) {
	fresh := MustNewBattery(agingConfig())
	aged := MustNewBattery(agingConfig())
	aged.PreAge(1)
	fv := float64(fresh.TerminalVoltage(150))
	av := float64(aged.TerminalVoltage(150))
	if av >= fv {
		t.Errorf("aged terminal %g >= fresh %g at the same load", av, fv)
	}
}

func TestLiveAgingAccumulates(t *testing.T) {
	cfg := agingConfig()
	// Tiny rated life so a short run visibly ages the battery.
	cfg.Life.RatedCycles = 4
	b := MustNewBattery(cfg)
	cap0 := float64(b.Capacity())
	for cycles := 0; cycles < 6; cycles++ {
		for i := 0; i < 4*3600 && !b.Depleted(); i++ {
			b.Discharge(120, time.Second)
		}
		for i := 0; i < 12*3600 && b.SoC() < 0.99; i++ {
			b.Charge(60, time.Second)
		}
	}
	cap1 := float64(b.Capacity())
	if cap1 >= cap0*0.97 {
		t.Errorf("live cycling did not fade capacity: %g -> %g", cap0, cap1)
	}
	if b.lifeFraction() <= 0.3 {
		t.Errorf("life fraction %g after heavy cycling", b.lifeFraction())
	}
}

// A reset clears the wear before refilling the wells, so a worn battery
// comes back full at its unfaded capacity, exactly like a new one.
func TestResetWornBatteryMatchesFresh(t *testing.T) {
	cfg := DefaultBatteryConfig()
	cfg.FadeAtEOL = 0.2
	b := MustNewBattery(cfg)
	b.PreAge(0.5)
	for i := 0; i < 600; i++ {
		b.Discharge(120, time.Second)
	}
	b.Reset()
	if got, want := b.Checkpoint(), MustNewBattery(cfg).Checkpoint(); got != want {
		t.Errorf("reset worn battery %+v, fresh %+v", got, want)
	}
	if got := b.SoC(); got != 1 {
		t.Errorf("reset worn battery SoC %g, want 1", got)
	}
}

func TestZeroFadeIsInert(t *testing.T) {
	b := MustNewBattery(DefaultBatteryConfig()) // FadeAtEOL = 0
	b.PreAge(1)
	fresh := MustNewBattery(DefaultBatteryConfig())
	if b.Capacity() != fresh.Capacity() {
		t.Error("fade disabled but capacity changed")
	}
	if b.effectiveOhm() != fresh.effectiveOhm() {
		t.Error("resistance growth disabled but resistance changed")
	}
}

func TestPoolPreAge(t *testing.T) {
	p := MustNewPool("batteries",
		MustNewBattery(agingConfig()), MustNewBattery(agingConfig()))
	fresh := float64(p.Capacity())
	for _, m := range p.Members() {
		m.(*Battery).PreAge(0.8)
	}
	if got := float64(p.Capacity()); got >= fresh*0.85 {
		t.Errorf("pool capacity %g not faded from %g", got, fresh)
	}
}
