package power

import (
	"fmt"

	"heb/internal/units"
)

// Converter models a power conversion stage with a load-dependent
// efficiency curve: poor at light load, near-nominal above ~30% load —
// the standard switched-mode converter shape. The paper's architecture
// analysis (Section 4.1) hinges on these losses: a centralized online UPS
// double-converts (AC-DC-AC) everything at 4-10% loss, the cluster-level
// HEB deployment pays one DC/AC stage on the storage path, and the
// rack-level deployment avoids conversion entirely.
type Converter struct {
	nominal float64     // peak efficiency, e.g. 0.95
	rated   units.Power // rated throughput for the efficiency curve

	loss units.Energy
}

// NewConverter builds a conversion stage. name labels it in errors;
// nominal is peak efficiency in (0,1]; rated is the design throughput.
func NewConverter(name string, nominal float64, rated units.Power) (Converter, error) {
	if nominal <= 0 || nominal > 1 {
		return Converter{}, fmt.Errorf("power: converter %q efficiency %g must be in (0,1]", name, nominal)
	}
	if rated <= 0 {
		return Converter{}, fmt.Errorf("power: converter %q rated power %v must be positive", name, rated)
	}
	return Converter{nominal: nominal, rated: rated}, nil
}

// MustNewConverter is NewConverter for known-good parameters.
func MustNewConverter(name string, nominal float64, rated units.Power) Converter {
	c, err := NewConverter(name, nominal, rated)
	if err != nil {
		panic(err)
	}
	return c
}

// Efficiency returns the conversion efficiency at the given output load.
func (c *Converter) Efficiency(out units.Power) float64 {
	if c.nominal >= 1 {
		return 1
	}
	frac := float64(out) / float64(c.rated)
	frac = units.Clamp(frac, 0, 1.5)
	// Light-load penalty: efficiency ramps from ~70% of nominal at zero
	// load to nominal at 30% load and stays flat after.
	ramp := units.Clamp(frac/0.3, 0, 1)
	return c.nominal * (0.70 + 0.30*ramp)
}

// InputFor returns the input power needed to deliver out, recording the
// difference as loss over the implied transfer (callers account time via
// RecordLoss; InputFor itself is pure).
func (c *Converter) InputFor(out units.Power) units.Power {
	if out <= 0 {
		return 0
	}
	eff := c.Efficiency(out)
	if eff <= 0 {
		return 0
	}
	return units.Power(float64(out) / eff)
}

// OutputFor returns the power delivered when in is applied at the input.
func (c *Converter) OutputFor(in units.Power) units.Power {
	if in <= 0 {
		return 0
	}
	// Efficiency depends on output; one fixed-point step is plenty for
	// the flat curve: estimate with nominal then refine.
	est := units.Power(float64(in) * c.nominal)
	eff := c.Efficiency(est)
	return units.Power(float64(in) * eff)
}

// AddLoss records e of conversion loss on this stage's meter.
func (c *Converter) AddLoss(e units.Energy) {
	if e > 0 {
		c.loss += e
	}
}

// Loss returns the cumulative recorded conversion loss.
func (c *Converter) Loss() units.Energy { return c.loss }

// Topology selects the deployment architecture of Section 4.2.
type Topology int

const (
	// TopologyRackLevel delivers DC from the buffers straight to servers
	// (no conversion loss, buffers not shared across racks).
	TopologyRackLevel Topology = iota
	// TopologyClusterLevel shares one buffer group across the cluster
	// but pays a DC/AC conversion on the storage discharge path.
	TopologyClusterLevel
	// TopologyCentralizedUPS is the conventional online double-
	// conversion UPS on the critical path (Figure 7(a)): everything,
	// including utility power, passes AC-DC-AC.
	TopologyCentralizedUPS
)

// String names the topology.
func (t Topology) String() string {
	switch t {
	case TopologyRackLevel:
		return "rack-level"
	case TopologyClusterLevel:
		return "cluster-level"
	case TopologyCentralizedUPS:
		return "centralized-UPS"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// DischargeConverter returns the conversion stage sitting between the
// energy buffers and the servers for this topology, rated for rated watts.
func (t Topology) DischargeConverter(rated units.Power) Converter {
	switch t {
	case TopologyClusterLevel:
		return MustNewConverter("DC/AC", 0.94, rated)
	case TopologyCentralizedUPS:
		return MustNewConverter("AC-DC-AC", 0.92, rated)
	default:
		// Pass-through: DC goes straight from the buffers to the servers.
		return Converter{nominal: 1, rated: 1}
	}
}

// UtilityConverter returns the stage on the utility path: only the
// centralized UPS double-converts utility power.
func (t Topology) UtilityConverter(rated units.Power) Converter {
	if t == TopologyCentralizedUPS {
		return MustNewConverter("AC-DC-AC", 0.92, rated)
	}
	return Converter{nominal: 1, rated: 1} // pass-through
}
