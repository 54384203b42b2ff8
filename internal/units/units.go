// Package units provides the physical quantity types used throughout the
// HEB simulator: power, energy, charge, voltage and current.
//
// All quantities are float64 newtypes in SI-adjacent units that match how
// the paper reports numbers: power in watts, energy in both joules and
// watt-hours (datacenter practice mixes the two), charge in ampere-hours
// (battery datasheet convention) and coulombs (capacitor convention).
// Using distinct types keeps the charge/energy bookkeeping in the battery
// and super-capacitor models honest: the compiler rejects, for example,
// adding an energy to a charge.
package units

import (
	"fmt"
	"time"
)

// Power is an instantaneous power in watts.
type Power float64

// Common power scales.
const (
	Watt     Power = 1
	Kilowatt Power = 1e3
	Megawatt Power = 1e6
)

// String formats the power with an adaptive unit prefix.
func (p Power) String() string {
	switch {
	case p >= Megawatt || p <= -Megawatt:
		return fmt.Sprintf("%.2fMW", float64(p)/1e6)
	case p >= Kilowatt || p <= -Kilowatt:
		return fmt.Sprintf("%.2fkW", float64(p)/1e3)
	default:
		return fmt.Sprintf("%.1fW", float64(p))
	}
}

// Over returns the energy transferred by sustaining p for d.
func (p Power) Over(d time.Duration) Energy {
	return Energy(float64(p) * d.Seconds())
}

// Energy is an amount of energy in joules (watt-seconds).
type Energy float64

// Common energy scales.
const (
	Joule        Energy = 1
	WattHour     Energy = 3600
	KilowattHour Energy = 3.6e6
)

// WattHours converts an energy expressed in watt-hours.
func WattHours(wh float64) Energy { return Energy(wh * float64(WattHour)) }

// KWh returns the energy in kilowatt-hours.
func (e Energy) KWh() float64 { return float64(e) / float64(KilowattHour) }

// Wh returns the energy in watt-hours.
func (e Energy) Wh() float64 { return float64(e) / float64(WattHour) }

// String formats the energy with an adaptive unit.
func (e Energy) String() string {
	switch {
	case e >= KilowattHour || e <= -KilowattHour:
		return fmt.Sprintf("%.2fkWh", e.KWh())
	case e >= WattHour || e <= -WattHour:
		return fmt.Sprintf("%.1fWh", e.Wh())
	default:
		return fmt.Sprintf("%.1fJ", float64(e))
	}
}

// Per returns the constant power that delivers e over d.
func (e Energy) Per(d time.Duration) Power {
	s := d.Seconds()
	if s == 0 {
		return 0
	}
	return Power(float64(e) / s)
}

// Voltage is an electric potential in volts.
type Voltage float64

// String formats the voltage.
func (v Voltage) String() string { return fmt.Sprintf("%.2fV", float64(v)) }

// Current is an electric current in amperes.
type Current float64

// String formats the current.
func (i Current) String() string { return fmt.Sprintf("%.2fA", float64(i)) }

// Charge is an electric charge in coulombs (ampere-seconds).
type Charge float64

// AmpereHour is the battery-datasheet charge unit.
const AmpereHour Charge = 3600

// AmpereHours converts a charge expressed in ampere-hours.
func AmpereHours(ah float64) Charge { return Charge(ah * float64(AmpereHour)) }

// Ah returns the charge in ampere-hours.
func (q Charge) Ah() float64 { return float64(q) / float64(AmpereHour) }

// String formats the charge in ampere-hours.
func (q Charge) String() string { return fmt.Sprintf("%.2fAh", q.Ah()) }

// At returns the energy stored by charge q at potential v.
func (q Charge) At(v Voltage) Energy { return Energy(float64(q) * float64(v)) }

// Clamp limits x to [lo, hi]. It is the saturation helper used by every
// physical model in the simulator; lo > hi is a programming error and
// panics rather than silently swapping bounds.
func Clamp(x, lo, hi float64) float64 {
	if lo > hi {
		panic(invertedBounds{lo, hi})
	}
	switch {
	case x < lo:
		return lo
	case x > hi:
		return hi
	default:
		return x
	}
}

// invertedBounds is Clamp's panic value. Its Error method formats the
// message, so the formatting stays out of Clamp and Clamp fits the
// inlining budget with room for the callers that wrap it.
type invertedBounds struct{ lo, hi float64 }

func (e invertedBounds) Error() string {
	return fmt.Sprintf("units.Clamp: inverted bounds [%g, %g]", e.lo, e.hi)
}
