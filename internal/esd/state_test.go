package esd

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestBatterySetSoC(t *testing.T) {
	b := MustNewBattery(DefaultBatteryConfig())
	for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
		b.SetSoC(frac)
		if got := b.SoC(); math.Abs(got-frac) > 1e-9 {
			t.Errorf("SetSoC(%g): SoC = %g", frac, got)
		}
	}
	// Out-of-range clamps.
	b.SetSoC(1.5)
	if got := b.SoC(); math.Abs(got-1) > 1e-9 {
		t.Errorf("SetSoC(1.5): SoC = %g, want 1", got)
	}
	b.SetSoC(-0.5)
	if got := b.SoC(); got != 0 {
		t.Errorf("SetSoC(-0.5): SoC = %g, want 0", got)
	}
}

func TestBatterySetSoCPreservesLedger(t *testing.T) {
	b := MustNewBattery(DefaultBatteryConfig())
	b.Discharge(100, time.Minute)
	before := b.Stats()
	b.SetSoC(0.5)
	if b.Stats() != before {
		t.Error("SetSoC touched the energy ledger")
	}
}

func TestBatterySetSoCWellsProportional(t *testing.T) {
	f := func(raw uint8) bool {
		frac := float64(raw) / 255
		b := MustNewBattery(DefaultBatteryConfig())
		b.SetSoC(frac)
		// The wells must hold the KiBaM equilibrium split c : 1-c.
		total := b.q1 + b.q2
		if total <= 0 {
			return frac == 0 && b.qFloor() == 0 || total >= 0
		}
		return math.Abs(b.q1/total-b.cfg.C) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSupercapSetSoC(t *testing.T) {
	s := MustNewSupercap(DefaultSupercapConfig())
	for _, frac := range []float64{0, 0.3, 0.7, 1} {
		s.SetSoC(frac)
		if got := s.SoC(); math.Abs(got-frac) > 1e-9 {
			t.Errorf("SetSoC(%g): SoC = %g", frac, got)
		}
	}
	s.SetSoC(2)
	if got := s.SoC(); math.Abs(got-1) > 1e-9 {
		t.Errorf("SetSoC(2): SoC = %g, want 1", got)
	}
}

func TestPoolSetSoC(t *testing.T) {
	p := MustNewPool("hybrid",
		MustNewBattery(DefaultBatteryConfig()),
		MustNewSupercap(DefaultSupercapConfig()))
	p.SetSoC(0.4)
	if got := p.SoC(); math.Abs(got-0.4) > 1e-6 {
		t.Errorf("pool SoC after SetSoC(0.4) = %g", got)
	}
	for i, m := range p.Members() {
		if got := m.SoC(); math.Abs(got-0.4) > 1e-9 {
			t.Errorf("member %d SoC %g, want 0.4", i, got)
		}
	}
}

func TestBatteryTerminalVoltageSagsWithLoad(t *testing.T) {
	b := MustNewBattery(DefaultBatteryConfig())
	open := float64(b.TerminalVoltage(0))
	light := float64(b.TerminalVoltage(30))
	heavy := float64(b.TerminalVoltage(180))
	if open != float64(b.Voltage()) {
		t.Errorf("no-load terminal %g != OCV %g", open, float64(b.Voltage()))
	}
	if !(heavy < light && light < open) {
		t.Errorf("terminal voltage not monotone in load: %g / %g / %g", open, light, heavy)
	}
}

func TestBatteryTerminalVoltageDeepensWhenDrained(t *testing.T) {
	b := MustNewBattery(DefaultBatteryConfig())
	fresh := float64(b.TerminalVoltage(150))
	b.SetSoC(0.15)
	drained := float64(b.TerminalVoltage(150))
	if drained >= fresh {
		t.Errorf("drained terminal %g >= fresh %g; sag should deepen", drained, fresh)
	}
}

func TestSupercapTerminalVoltage(t *testing.T) {
	s := MustNewSupercap(DefaultSupercapConfig())
	open := float64(s.TerminalVoltage(0))
	loaded := float64(s.TerminalVoltage(300))
	if open != float64(s.Voltage()) {
		t.Errorf("no-load terminal %g != OCV %g", open, float64(s.Voltage()))
	}
	if loaded >= open {
		t.Error("ESR drop missing under load")
	}
	// The SC's droop is small relative to the battery's sag at the same
	// load — the Figure 5 contrast.
	b := MustNewBattery(DefaultBatteryConfig())
	b.SetSoC(0.3)
	s.SetSoC(0.3)
	scDrop := float64(s.Voltage()) - float64(s.TerminalVoltage(150))
	baDrop := float64(b.Voltage()) - float64(b.TerminalVoltage(150))
	if scDrop >= baDrop {
		t.Errorf("SC droop %g >= battery sag %g at 150W/30%%SoC", scDrop, baDrop)
	}
}

func TestPoolTerminalVoltage(t *testing.T) {
	p := MustNewPool("batteries",
		MustNewBattery(DefaultBatteryConfig()),
		MustNewBattery(DefaultBatteryConfig()))
	open := float64(p.TerminalVoltage(0))
	loaded := float64(p.TerminalVoltage(200))
	if loaded >= open {
		t.Errorf("pool terminal %g not below open %g under load", loaded, open)
	}
	// Two strings share the load: the pool's terminal at 200W should be
	// higher than a single string's at 200W.
	single := MustNewBattery(DefaultBatteryConfig())
	if loaded <= float64(single.TerminalVoltage(200)) {
		t.Error("pool does not benefit from load sharing")
	}
}
