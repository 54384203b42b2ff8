package esd

import (
	"fmt"
	"math"
)

// ThermalConfig models battery self-heating and its operational
// consequences. The paper's motivation (Section 1): "to avoid battery
// overheating during charging, batteries cannot be re-charged very fast
// with large charging current" — here the charge-current ceiling derates
// continuously as the cell heats instead of being a fixed constant, and
// wear accelerates with temperature (the lead-acid rule of thumb: life
// halves per ~10 °C above 25 °C).
type ThermalConfig struct {
	// AmbientC is the surrounding air temperature in °C.
	AmbientC float64
	// ThermalResistance is the cell-to-ambient resistance in °C/W:
	// steady-state rise = dissipated power × resistance.
	ThermalResistance float64
	// TimeConstantSeconds is the first-order thermal time constant.
	TimeConstantSeconds float64
	// DerateStartC is where charge-current derating begins; at
	// ShutdownC charging is fully blocked.
	DerateStartC, ShutdownC float64
	// WearDoublingC is the temperature rise that doubles aging
	// (Arrhenius rule of thumb: 10 °C).
	WearDoublingC float64
	// WearRefC is the temperature at which the lifetime model's rated
	// throughput applies.
	WearRefC float64
}

// DefaultThermalConfig returns datacenter-ambient lead-acid constants.
func DefaultThermalConfig() ThermalConfig {
	return ThermalConfig{
		AmbientC:            25,
		ThermalResistance:   2.5,
		TimeConstantSeconds: 1800,
		DerateStartC:        40,
		ShutdownC:           55,
		WearDoublingC:       10,
		WearRefC:            25,
	}
}

// Validate reports the first invalid field. A zero-value config is also
// accepted and means "thermal modelling disabled".
func (c ThermalConfig) Validate() error {
	if !c.Enabled() {
		return nil
	}
	switch {
	case c.ThermalResistance <= 0:
		return fmt.Errorf("esd: thermal resistance %g must be positive", c.ThermalResistance)
	case c.TimeConstantSeconds <= 0:
		return fmt.Errorf("esd: thermal time constant %g must be positive", c.TimeConstantSeconds)
	case c.ShutdownC <= c.DerateStartC:
		return fmt.Errorf("esd: thermal window [%g, %g] inverted", c.DerateStartC, c.ShutdownC)
	case c.DerateStartC <= c.AmbientC:
		return fmt.Errorf("esd: derate start %g must exceed ambient %g", c.DerateStartC, c.AmbientC)
	case c.WearDoublingC <= 0:
		return fmt.Errorf("esd: wear doubling interval %g must be positive", c.WearDoublingC)
	}
	return nil
}

// Enabled reports whether the config activates thermal modelling.
func (c ThermalConfig) Enabled() bool {
	return c.ThermalResistance > 0 && c.TimeConstantSeconds > 0
}

// thermalState tracks a battery's cell temperature.
type thermalState struct {
	tempC float64
	peakC float64
}

func newThermalState(cfg ThermalConfig) thermalState {
	return thermalState{tempC: cfg.AmbientC, peakC: cfg.AmbientC}
}

// advance integrates the first-order thermal model over secs seconds with
// dissipated watts of internal loss heating the cell. It inlines, so a
// battery with thermal modelling off pays only the check.
func (t *thermalState) advance(cfg *ThermalConfig, dissipated, secs float64) {
	if cfg.Enabled() && secs > 0 {
		t.integrate(cfg, dissipated, secs)
	}
}

func (t *thermalState) integrate(cfg *ThermalConfig, dissipated, secs float64) {
	target := cfg.AmbientC + max(0, dissipated)*cfg.ThermalResistance
	alpha := 1 - math.Exp(-secs/cfg.TimeConstantSeconds)
	t.tempC += (target - t.tempC) * alpha
	if t.tempC > t.peakC {
		t.peakC = t.tempC
	}
}

// chargeDerate returns the fraction of the nominal charge-current ceiling
// available at the present temperature: 1 below DerateStartC, linearly
// falling to 0 at ShutdownC.
func (t *thermalState) chargeDerate(cfg *ThermalConfig) float64 {
	if !cfg.Enabled() {
		return 1
	}
	switch {
	case t.tempC <= cfg.DerateStartC:
		return 1
	case t.tempC >= cfg.ShutdownC:
		return 0
	default:
		return (cfg.ShutdownC - t.tempC) / (cfg.ShutdownC - cfg.DerateStartC)
	}
}

// wearMultiplier returns the Arrhenius aging acceleration at the present
// temperature relative to the lifetime model's reference.
func (t *thermalState) wearMultiplier(cfg ThermalConfig) float64 {
	if !cfg.Enabled() {
		return 1
	}
	return math.Pow(2, (t.tempC-cfg.WearRefC)/cfg.WearDoublingC)
}

// Thermal reports the battery's present and peak cell temperature in °C
// (ambient when thermal modelling is disabled).
func (b *Battery) Thermal() (current, peak float64) {
	if !b.cfg.Thermal.Enabled() {
		return b.cfg.Thermal.AmbientC, b.cfg.Thermal.AmbientC
	}
	return b.thermal.tempC, b.thermal.peakC
}
