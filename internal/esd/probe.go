package esd

import "heb/internal/units"

// ProbeSnapshot is a point-in-time view of a device's internal state for
// the observability layer: state of charge, open-circuit voltage, the
// KiBaM charge wells, and the cumulative energy ledger. It deliberately
// exposes the *raw* well contents (not clamped to the usable window) so
// the energy-conservation auditor can catch integration bugs — a negative
// well or charge above chemical capacity is exactly the kind of silent
// model-fidelity failure that never shows up in clamped SoC.
type ProbeSnapshot struct {
	// SoC is the usable-window state of charge in [0, 1].
	SoC float64
	// VoltageV is the present open-circuit voltage.
	VoltageV float64
	// VMinV and VMaxV bound the device's legal open-circuit voltage range
	// (the auditor flags excursions).
	VMinV, VMaxV float64
	// AvailAh and BoundAh are the KiBaM available and bound wells in
	// ampere-hours, unclamped. Super-capacitors report their whole usable
	// charge as available and zero bound.
	AvailAh, BoundAh float64
	// CapacityAh is the total chemical charge capacity in ampere-hours.
	CapacityAh float64
	// ThroughputAh is the cumulative discharged charge.
	ThroughputAh float64
	// EnergyInWh, EnergyOutWh and LossWh are the cumulative ledger at the
	// device terminals, in watt-hours.
	EnergyInWh, EnergyOutWh, LossWh float64
	// StoredWh and CapacityWh are the usable store and window, in
	// watt-hours.
	StoredWh, CapacityWh float64
}

// NetOutWh is the cumulative net energy the device has pushed out at its
// terminals (discharged minus charged); the probe recorder differentiates
// it into a mean terminal power series.
func (s ProbeSnapshot) NetOutWh() float64 { return s.EnergyOutWh - s.EnergyInWh }

// Prober is implemented by devices that can expose a ProbeSnapshot.
type Prober interface {
	ProbeSnapshot() ProbeSnapshot
}

var (
	_ Prober = (*Battery)(nil)
	_ Prober = (*Supercap)(nil)
	_ Prober = Null{}
)

// ProbeSnapshot implements Prober with the raw KiBaM wells.
func (b *Battery) ProbeSnapshot() ProbeSnapshot {
	var s ProbeSnapshot
	b.probeInto(&s, true)
	return s
}

// probeInto writes the battery's snapshot into s. With full false it
// writes only the bounds fields (SoC, VoltageV, VMinV, VMaxV, AvailAh,
// BoundAh, CapacityAh) and leaves the ledger fields as they were.
func (b *Battery) probeInto(s *ProbeSnapshot, full bool) {
	vn := float64(b.cfg.NominalVoltage)
	s.SoC = b.SoC()
	s.VoltageV = float64(b.ocv())
	s.VMinV = b.cfg.VEmptyFrac * vn
	s.VMaxV = b.cfg.VFullFrac * vn
	s.AvailAh = units.Charge(b.q1).Ah()
	s.BoundAh = units.Charge(b.q2).Ah()
	s.CapacityAh = units.Charge(b.qMax()).Ah()
	if !full {
		return
	}
	s.ThroughputAh = b.stats.ThroughputAh
	s.EnergyInWh = b.stats.EnergyIn.Wh()
	s.EnergyOutWh = b.stats.EnergyOut.Wh()
	s.LossWh = b.stats.Loss.Wh()
	s.StoredWh = b.Stored().Wh()
	s.CapacityWh = b.Capacity().Wh()
}

// ProbeSnapshot implements Prober: the capacitor's usable charge window
// maps onto the available well; there is no bound charge. Self-discharge
// leak can rest the voltage below the DoD window floor while the device
// sits depleted — the usable well is then empty, not negative, so the
// available charge clamps at zero (unlike battery wells, where a negative
// value is always an integration bug worth auditing).
func (s *Supercap) ProbeSnapshot() ProbeSnapshot {
	var p ProbeSnapshot
	s.probeInto(&p, true)
	return p
}

// probeInto writes the capacitor's snapshot into p; full as for
// Battery.probeInto.
func (s *Supercap) probeInto(p *ProbeSnapshot, full bool) {
	vf := s.vFloor()
	vmax := float64(s.cfg.VMax)
	c := s.cfg.Capacitance
	p.SoC = s.SoC()
	p.VoltageV = s.v
	p.VMinV = float64(s.cfg.VMin)
	p.VMaxV = vmax
	p.AvailAh = units.Charge(c * max(s.v-vf, 0)).Ah()
	p.BoundAh = 0
	p.CapacityAh = units.Charge(c * (vmax - vf)).Ah()
	if !full {
		return
	}
	p.ThroughputAh = 0
	p.EnergyInWh = s.stats.EnergyIn.Wh()
	p.EnergyOutWh = s.stats.EnergyOut.Wh()
	p.LossWh = s.stats.Loss.Wh()
	p.StoredWh = s.Stored().Wh()
	p.CapacityWh = s.Capacity().Wh()
}

// ProbeSnapshot implements Prober for the no-storage device.
func (Null) ProbeSnapshot() ProbeSnapshot { return ProbeSnapshot{} }
