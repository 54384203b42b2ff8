// Package esd models the energy storage devices that HEB pools as hybrid
// energy buffers: lead-acid UPS batteries and super-capacitors.
//
// The battery is a KiBaM (kinetic battery model) two-well model with a
// Shepherd-style voltage sag term. KiBaM reproduces the three battery
// phenomena the paper's characterization (Section 3) is built on:
//
//   - the rate-capacity (Peukert) effect: high discharge currents drain
//     the available well faster than bound charge can replenish it, so
//     the usable capacity shrinks;
//   - the recovery effect: during rest, bound charge flows back into the
//     available well, "recovering" energy that seemed lost;
//   - voltage collapse under large loads at low state of charge.
//
// The super-capacitor is an ideal capacitor behind an equivalent series
// resistance: energy E = ½CV², a linearly declining voltage with charge,
// near-unlimited charge current, and only resistive round-trip loss.
//
// Battery wear is tracked with the weighted Ah-throughput lifetime model
// the paper cites (Bindner et al., Risø National Laboratory [49]).
package esd

import (
	"time"

	"heb/internal/units"
)

// Device is a controllable energy buffer. All methods operate at the DC
// terminals of the device; conversion losses between the device and the
// load belong to the power-delivery layer, not here.
//
// Implementations are not safe for concurrent use; the simulator steps
// each device from a single goroutine.
type Device interface {
	// Discharge requests req watts of load for dt and returns the power
	// actually delivered, which may be lower if the device is depleted,
	// current-limited, or its voltage would collapse below cutoff.
	Discharge(req units.Power, dt time.Duration) units.Power

	// Charge offers up to offered watts for dt and returns the power
	// actually drawn from the source (input side, including what is then
	// lost inside the device).
	Charge(offered units.Power, dt time.Duration) units.Power

	// SoC is the state of charge of the usable window in [0, 1].
	SoC() float64

	// Stored is the energy currently held above the usable floor.
	Stored() units.Energy

	// Capacity is the usable energy capacity (full-to-floor).
	Capacity() units.Energy

	// Voltage is the present open-circuit terminal voltage.
	Voltage() units.Voltage

	// MaxDischargePower estimates the largest load the device can serve
	// right now without violating current or cutoff-voltage limits.
	MaxDischargePower() units.Power

	// MaxChargePower estimates the largest charging power the device can
	// accept right now.
	MaxChargePower() units.Power

	// Depleted reports whether the device has no usable energy left for
	// practical loads.
	Depleted() bool

	// Stats returns cumulative energy accounting since the last Reset.
	Stats() Stats

	// Rest advances time without load, letting time-dependent internal
	// processes (charge recovery, self-discharge) act.
	Rest(dt time.Duration)

	// Reset restores the device to full charge and clears statistics.
	Reset()
}

// Stats is the cumulative energy ledger of a device. The simulator derives
// round-trip efficiency and the Figure 3 characterization from these.
type Stats struct {
	// EnergyIn is the total energy drawn from sources at the input
	// terminals while charging.
	EnergyIn units.Energy
	// EnergyOut is the total energy delivered to loads.
	EnergyOut units.Energy
	// Loss is the total energy dissipated inside the device (resistive
	// and coulombic losses, self-discharge).
	Loss units.Energy
	// ThroughputAh is the total discharged charge in ampere-hours
	// (batteries only; zero for super-capacitors).
	ThroughputAh float64
	// WeightedAh is ThroughputAh with each increment scaled by the
	// Risø wear weight for the current and depth at which it was drawn.
	WeightedAh float64
	// DischargeTime is the cumulative time spent delivering power.
	DischargeTime time.Duration
}

func (s *Stats) add(o Stats) {
	s.EnergyIn += o.EnergyIn
	s.EnergyOut += o.EnergyOut
	s.Loss += o.Loss
	s.ThroughputAh += o.ThroughputAh
	s.WeightedAh += o.WeightedAh
	s.DischargeTime += o.DischargeTime
}
