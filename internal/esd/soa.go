package esd

// Batch is a struct-of-arrays view of a pool's member state: parallel
// slices indexed by member position, refreshed in one pass per pool. It is
// the bulk-read companion of the pool's devirtualized stepping — probe
// decimation, telemetry aggregation and tests can scan dense float slices
// instead of walking the Device interface per member. The slices are owned
// by the Batch and reused across refreshes, so a steady-state consumer
// allocates nothing.
type Batch struct {
	// SoC is the usable-window state of charge per member.
	SoC []float64
	// VoltageV is the open-circuit voltage per member.
	VoltageV []float64
	// WellFrac is the available-well fill fraction per member: the KiBaM
	// h1 fraction for batteries, the usable-window SoC for supercaps (their
	// whole store is available), 1 for foreign devices.
	WellFrac []float64
	// TempC is the cell temperature per member; batteries without thermal
	// modelling and non-battery members report ambient (25).
	TempC []float64
}

// defaultAmbientC is reported for members that do not model temperature.
const defaultAmbientC = 25

// resize grows the batch slices to n members, reusing backing arrays.
func (b *Batch) resize(n int) {
	if cap(b.SoC) < n {
		b.SoC = make([]float64, n)
		b.VoltageV = make([]float64, n)
		b.WellFrac = make([]float64, n)
		b.TempC = make([]float64, n)
		return
	}
	b.SoC = b.SoC[:n]
	b.VoltageV = b.VoltageV[:n]
	b.WellFrac = b.WellFrac[:n]
	b.TempC = b.TempC[:n]
}

// Snapshot refreshes the batch from the pool's current member state in one
// pass and returns it. A nil batch allocates a fresh one; passing the
// previous return value back reuses its backing arrays.
func (p *Pool) Snapshot(b *Batch) *Batch {
	p.sync()
	if b == nil {
		b = &Batch{}
	}
	b.resize(len(p.members))
	for i := range p.members {
		b.SoC[i] = p.memberSoC(i)
		b.VoltageV[i] = float64(p.memberVoltage(i))
		switch {
		case p.bat[i] != nil:
			bat := p.bat[i]
			b.WellFrac[i] = bat.h1Frac()
			b.TempC[i], _ = bat.Thermal()
		case p.sc[i] != nil:
			b.WellFrac[i] = b.SoC[i]
			b.TempC[i] = defaultAmbientC
		default:
			b.WellFrac[i] = 1
			b.TempC[i] = defaultAmbientC
		}
	}
	return b
}
