package esd

import (
	"fmt"
	"time"

	"heb/internal/units"
)

// Pool aggregates parallel devices (battery strings or super-capacitor
// banks behind a shared DC bus) into one Device. Load and charge power is
// split across members in proportion to their present capability, which is
// how paralleled strings share current in practice: a sagging string
// naturally carries less.
//
// Every member call goes through the Device interface, and the
// capability scratch is pool-owned rather than allocated per call. Member
// order is preserved everywhere, so the floating-point summation order —
// and therefore every simulation result — is bit-identical to the naive
// per-device loop.
//
// A pool built by NewUniformPool owns n copies of one prototype. They
// stay in lockstep, so while the pool is uniform it steps member 0 alone
// and lets members 1..n-1 go stale; every aggregate adds member 0's
// value n times in member order, which keeps it bit-identical to the
// per-member loop.
type Pool struct {
	name    string
	members []Device

	// caps is the reusable capability scratch for scanCaps, which every
	// capability read and transfer takes; it lives on the pool so the
	// per-step hot path never allocates. The pool is single-goroutine
	// (like its members), so one scratch suffices.
	caps []units.Power

	// uniform is set while every member is a copy of one prototype that
	// no caller can reach, so only member 0 holds live state. sync brings
	// the stale members up to date; Members drops the flag for good.
	uniform bool
}

var _ Device = (*Pool)(nil)

// NewPool builds a pool from one or more member devices.
func NewPool(name string, members ...Device) (*Pool, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("esd: pool %q needs at least one member", name)
	}
	for i, m := range members {
		if m == nil {
			return nil, fmt.Errorf("esd: pool %q member %d is nil", name, i)
		}
	}
	return &Pool{
		name:    name,
		members: members,
		caps:    make([]units.Power, len(members)),
	}, nil
}

// NewUniformPool builds a pool of n copies of proto, a *Battery or
// *Supercap. The copies are taken by value and proto is not a member, so
// no caller holds a member until Members hands them out; until then the
// pool steps member 0 only.
func NewUniformPool(name string, n int, proto Device) (*Pool, error) {
	if n < 1 {
		return nil, fmt.Errorf("esd: pool %q needs at least one member", name)
	}
	members := make([]Device, n)
	switch d := proto.(type) {
	case *Battery:
		copies := make([]Battery, n)
		for i := range copies {
			copies[i] = *d
			members[i] = &copies[i]
		}
	case *Supercap:
		copies := make([]Supercap, n)
		for i := range copies {
			copies[i] = *d
			members[i] = &copies[i]
		}
	default:
		return nil, fmt.Errorf("esd: uniform pool %q cannot copy a %T", name, proto)
	}
	p, err := NewPool(name, members...)
	if err != nil {
		return nil, err
	}
	p.uniform = true
	return p, nil
}

// MustNewPool is NewPool for known-good member lists.
func MustNewPool(name string, members ...Device) *Pool {
	p, err := NewPool(name, members...)
	if err != nil {
		panic(err)
	}
	return p
}

// Name returns the pool's name (e.g. "battery", "supercap").
func (p *Pool) Name() string { return p.name }

// Members returns the member devices (shared, not copied). The caller
// may then touch one member alone, so a uniform pool syncs its members
// and steps each of them from here on.
func (p *Pool) Members() []Device {
	p.sync()
	p.uniform = false
	return p.members
}

// ProbeMemberInto writes member i's probe snapshot into s, so a per-step
// reader keeps one buffer per device instead of copying a snapshot out
// per call. With full false a battery or super-capacitor member writes
// only the bounds fields — SoC, VoltageV, VMinV, VMaxV, AvailAh, BoundAh
// and CapacityAh — and leaves the ledger fields as they were; any other
// member writes its whole snapshot, zero when it cannot be probed. It
// hands no member out, so unlike Members it keeps a uniform pool
// uniform: there every member's snapshot is member 0's, which the
// members would match bit for bit once synced.
func (p *Pool) ProbeMemberInto(i int, s *ProbeSnapshot, full bool) {
	if i >= p.live() {
		i = 0
	}
	switch m := p.members[i].(type) {
	case partialProber:
		m.probeInto(s, full)
	case Prober:
		*s = m.ProbeSnapshot()
	default:
		*s = ProbeSnapshot{}
	}
}

// partialProber is a member whose snapshot can skip the ledger fields:
// the battery and the super-capacitor.
type partialProber interface {
	probeInto(s *ProbeSnapshot, full bool)
}

// Uniform reports whether the pool still steps member 0 alone.
func (p *Pool) Uniform() bool { return p.uniform }

// sync copies member 0's state over the stale members of a uniform pool.
func (p *Pool) sync() {
	if !p.uniform {
		return
	}
	switch d := p.members[0].(type) {
	case *Battery:
		for _, m := range p.members[1:] {
			*m.(*Battery) = *d
		}
	case *Supercap:
		for _, m := range p.members[1:] {
			*m.(*Supercap) = *d
		}
	}
}

// BatteryConfig returns the configuration of the first battery member.
// Configurations never change after construction, so unlike Members it
// leaves a uniform pool uniform.
func (p *Pool) BatteryConfig() (BatteryConfig, bool) {
	for _, m := range p.members {
		if b, ok := m.(*Battery); ok {
			return b.Config(), true
		}
	}
	return BatteryConfig{}, false
}

// Size returns the member count.
func (p *Pool) Size() int { return len(p.members) }

// The aggregates below loop over every member in order. Members at or
// past live() are stale copies of member 0 in a uniform pool, so each
// loop reads a value only from live members and adds the last one read
// for the rest: the same sequential sum the per-member loop makes, bit
// for bit (multiplying by the member count would round differently).

// live is the number of members holding live state: one while the pool
// is uniform.
func (p *Pool) live() int {
	if p.uniform {
		return 1
	}
	return len(p.members)
}

// SoC is the capacity-weighted mean state of charge.
func (p *Pool) SoC() float64 {
	live := p.live()
	var num, den, soc, c float64
	for i := range p.members {
		if i < live {
			soc, c = p.members[i].SoC(), float64(p.members[i].Capacity())
		}
		num += soc * c
		den += c
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// Stored sums members' usable stored energy.
func (p *Pool) Stored() units.Energy {
	live := p.live()
	var e, m units.Energy
	for i := range p.members {
		if i < live {
			m = p.members[i].Stored()
		}
		e += m
	}
	return e
}

// Capacity sums members' usable capacity.
func (p *Pool) Capacity() units.Energy {
	live := p.live()
	var e, m units.Energy
	for i := range p.members {
		if i < live {
			m = p.members[i].Capacity()
		}
		e += m
	}
	return e
}

// Voltage reports the highest member voltage (the bus follows the
// strongest string through its ORing diode).
func (p *Pool) Voltage() units.Voltage {
	var v units.Voltage
	for i := range p.live() {
		if mv := p.members[i].Voltage(); mv > v {
			v = mv
		}
	}
	return v
}

// TerminalVoltage estimates the loaded bus voltage while delivering load
// watts: each member carries a share proportional to its capability, and
// the bus sits at the capability-weighted mean of member terminals.
func (p *Pool) TerminalVoltage(load units.Power) units.Voltage {
	capSum := p.scanCaps(true)
	if capSum <= 0 {
		return p.Voltage()
	}
	if load > capSum {
		load = capSum
	}
	live := p.live()
	var num, den, vw, w float64
	for i := range p.members {
		if i < live {
			share := units.Power(float64(load) * float64(p.caps[i]) / float64(capSum))
			vw, w = 0, 0
			if tv, ok := p.members[i].(terminalVoltager); ok {
				w = float64(p.caps[i])
				vw = float64(tv.TerminalVoltage(share)) * w
			}
		}
		num += vw
		den += w
	}
	if den == 0 {
		return p.Voltage()
	}
	return units.Voltage(num / den)
}

// terminalVoltager is a member that models its loaded terminal voltage.
type terminalVoltager interface {
	TerminalVoltage(load units.Power) units.Voltage
}

// MaxDischargePower sums member discharge capability through the scan
// TerminalVoltage and Discharge take.
func (p *Pool) MaxDischargePower() units.Power {
	return p.scanCaps(true)
}

// MaxChargePower sums member charge acceptance through the scan Charge
// takes.
func (p *Pool) MaxChargePower() units.Power {
	return p.scanCaps(false)
}

// Depleted reports whether every member is depleted.
func (p *Pool) Depleted() bool {
	for i := range p.live() {
		if !p.members[i].Depleted() {
			return false
		}
	}
	return true
}

// Discharge splits req across members in proportion to their capability
// and returns total delivered power.
func (p *Pool) Discharge(req units.Power, dt time.Duration) units.Power {
	return p.transfer(req, dt, true)
}

// Charge splits offered watts across members in proportion to their
// acceptance and returns total input power drawn.
func (p *Pool) Charge(offered units.Power, dt time.Duration) units.Power {
	return p.transfer(offered, dt, false)
}

// scanCaps fills the capability scratch for the live members with their
// discharge (or charge) capability and returns the sum over all members.
func (p *Pool) scanCaps(discharge bool) units.Power {
	live := p.live()
	var capSum, c units.Power
	for i := range p.members {
		if i < live {
			if discharge {
				c = p.members[i].MaxDischargePower()
			} else {
				c = p.members[i].MaxChargePower()
			}
			p.caps[i] = c
		}
		capSum += c
	}
	return capSum
}

// transfer implements the proportional split shared by Discharge and
// Charge. Each member's share is proportional to its instantaneous
// capability, so no member is asked for more than it can serve and every
// member is dispatched exactly once per step (keeping recovery and leakage
// time in sync across the pool). It is the pool's hot path: one capability
// pass and one dispatch pass over the members, zero allocations. A
// uniform pool dispatches member 0 alone and counts its result once per
// member.
func (p *Pool) transfer(total units.Power, dt time.Duration, discharge bool) units.Power {
	capSum := p.scanCaps(discharge)
	if total <= 0 || capSum <= 0 {
		p.Rest(dt)
		return 0
	}
	if total > capSum {
		total = capSum
	}
	live := p.live()
	var moved, got units.Power
	for i := range p.members {
		if i < live {
			share := units.Power(float64(total) * float64(p.caps[i]) / float64(capSum))
			if discharge {
				got = p.members[i].Discharge(share, dt)
			} else {
				got = p.members[i].Charge(share, dt)
			}
		}
		moved += got
	}
	return moved
}

// Rest advances all members without load.
func (p *Pool) Rest(dt time.Duration) {
	for _, m := range p.members[:p.live()] {
		m.Rest(dt)
	}
}

// Stats sums member ledgers.
func (p *Pool) Stats() Stats {
	live := p.live()
	var s, m Stats
	for i := range p.members {
		if i < live {
			m = p.members[i].Stats()
		}
		s.add(m)
	}
	return s
}

// Meters returns Stats().EnergyIn and Stats().EnergyOut bit for bit —
// the same member order and the same additions — without summing the
// ledger's other fields: the invariant checker reads the bus meters
// every step.
func (p *Pool) Meters() (in, out units.Energy) {
	live := p.live()
	var mi, mo units.Energy
	for i := range p.members {
		if i < live {
			st := p.members[i].Stats()
			mi, mo = st.EnergyIn, st.EnergyOut
		}
		in += mi
		out += mo
	}
	return in, out
}

// Reset resets all members.
func (p *Pool) Reset() {
	for _, m := range p.members[:p.live()] {
		m.Reset()
	}
}

// SetSoC forces every member supporting it to the given state of charge
// (experiment setup; see Battery.SetSoC).
func (p *Pool) SetSoC(frac float64) {
	for _, m := range p.members[:p.live()] {
		if s, ok := m.(interface{ SetSoC(float64) }); ok {
			s.SetSoC(frac)
		}
	}
}

// PreAge pre-ages every battery member (experiment setup; see
// Battery.PreAge). Unlike a loop over Members, it keeps a uniform pool
// uniform.
func (p *Pool) PreAge(lifeFraction float64) {
	for _, m := range p.members[:p.live()] {
		if b, ok := m.(*Battery); ok {
			b.PreAge(lifeFraction)
		}
	}
}

// Wear aggregates wear reports from battery members; non-battery members
// are skipped. The second result is the number of batteries found.
func (p *Pool) Wear() (WearReport, int) {
	live := p.live()
	var sum, r WearReport
	n := 0
	for i, m := range p.members {
		b, ok := m.(*Battery)
		if !ok {
			continue
		}
		if i < live {
			r = b.Wear()
		}
		sum.ThroughputAh += r.ThroughputAh
		sum.WeightedAh += r.WeightedAh
		sum.RatedAh += r.RatedAh
		sum.EquivalentFullCycles += r.EquivalentFullCycles
		if r.PeakStressWeight > sum.PeakStressWeight {
			sum.PeakStressWeight = r.PeakStressWeight
		}
		n++
	}
	if n > 0 {
		sum.EquivalentFullCycles /= float64(n)
		if sum.RatedAh > 0 {
			sum.LifeFractionUsed = sum.WeightedAh / sum.RatedAh
		}
	}
	return sum, n
}
