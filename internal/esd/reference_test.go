package esd

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"heb/internal/units"
)

// refBattery is the Battery step as it was before the derived terms were
// cached, kept as the oracle: every quantity is recomputed from the config
// and the wear on each use, with math.Min/math.Max and the thermal step
// taking its config by value. The one intended difference is Reset, which
// clears the wear before sizing the wells (the live code's fix for a worn
// battery resetting into its faded capacity).
type refBattery struct {
	cfg     BatteryConfig
	q1, q2  float64
	failed  bool
	thermal thermalState
	stats   Stats
	wear    wearTracker
}

func newRefBattery(cfg BatteryConfig) *refBattery {
	b := &refBattery{cfg: cfg}
	b.Reset()
	return b
}

func (b *refBattery) lifeFraction() float64 {
	rated := b.cfg.Life.ratedThroughputAh(b.cfg.CapacityAh)
	if rated <= 0 {
		return 0
	}
	return math.Min(1, b.wear.weightedAh/rated)
}

func (b *refBattery) qMax() float64 {
	nominal := float64(units.AmpereHours(b.cfg.CapacityAh))
	if b.cfg.FadeAtEOL > 0 {
		nominal *= 1 - b.cfg.FadeAtEOL*b.lifeFraction()
	}
	return nominal
}

func (b *refBattery) qFloor() float64 { return (1 - b.cfg.DoD) * b.qMax() }

func (b *refBattery) SoC() float64 {
	usable := b.qMax() - b.qFloor()
	if usable <= 0 {
		return 0
	}
	return units.Clamp((b.q1+b.q2-b.qFloor())/usable, 0, 1)
}

func (b *refBattery) totalSoC() float64 {
	return units.Clamp((b.q1+b.q2)/b.qMax(), 0, 1)
}

func (b *refBattery) Voltage() units.Voltage { return b.ocv() }

func (b *refBattery) TerminalVoltage(p units.Power) units.Voltage {
	voc := float64(b.ocv())
	if p <= 0 {
		return units.Voltage(voc)
	}
	r := b.effectiveOhm()
	i := solveDischargeCurrent(float64(p), voc, r)
	i = math.Min(i, b.maxDischargeCurrent())
	return units.Voltage(voc - i*r)
}

func (b *refBattery) ocv() units.Voltage {
	vn := float64(b.cfg.NominalVoltage)
	lo, hi := b.cfg.VEmptyFrac*vn, b.cfg.VFullFrac*vn
	return units.Voltage(lo + (hi-lo)*b.totalSoC())
}

func (b *refBattery) h1Frac() float64 {
	cap1 := b.cfg.C * b.qMax()
	if cap1 <= 0 {
		return 0
	}
	return units.Clamp(b.q1/cap1, 0, 1)
}

func (b *refBattery) effectiveOhm() float64 {
	const floor = 0.05
	h1 := math.Max(b.h1Frac(), floor)
	r := b.cfg.InternalOhm + b.cfg.SagOhm*(1-h1)/h1
	if b.cfg.ResistanceGrowthAtEOL > 0 {
		r *= 1 + b.cfg.ResistanceGrowthAtEOL*b.lifeFraction()
	}
	return r
}

func (b *refBattery) availableDischargeCharge() float64 {
	floorShare := b.cfg.C * b.qFloor()
	avail := b.q1 - floorShare
	total := b.q1 + b.q2 - b.qFloor()
	return math.Max(0, math.Min(avail, total))
}

func (b *refBattery) maxDischargeCurrent() float64 {
	iRate := b.cfg.MaxDischargeC * b.cfg.CapacityAh
	voc := float64(b.ocv())
	vcut := b.cfg.CutoffFrac * float64(b.cfg.NominalVoltage)
	r := b.effectiveOhm()
	iCut := (voc - vcut) / r
	return math.Max(0, math.Min(iRate, iCut))
}

func (b *refBattery) MaxDischargePower() units.Power {
	if b.failed || b.Depleted() {
		return 0
	}
	i := b.maxDischargeCurrent()
	voc := float64(b.ocv())
	v := voc - i*b.effectiveOhm()
	return units.Power(math.Max(0, v*i))
}

func (b *refBattery) MaxChargePower() units.Power {
	if b.failed {
		return 0
	}
	head := b.qMax() - (b.q1 + b.q2)
	if head <= 0 {
		return 0
	}
	i := b.cfg.MaxChargeC * b.cfg.CapacityAh * b.thermal.chargeDerate(&b.cfg.Thermal)
	voc := float64(b.ocv())
	v := voc + i*b.cfg.InternalOhm
	return units.Power(v * i)
}

func (b *refBattery) Depleted() bool {
	return b.failed || b.availableDischargeCharge() < 1e-9 || b.maxDischargeCurrent() < 1e-9
}

func (b *refBattery) Fail()   { b.failed = true }
func (b *refBattery) Repair() { b.failed = false }

func (b *refBattery) Stored() units.Energy {
	if b.failed {
		return 0
	}
	q := math.Max(0, b.q1+b.q2-b.qFloor())
	return units.Charge(q).At(b.ocv())
}

func (b *refBattery) Capacity() units.Energy {
	return units.Charge(b.cfg.DoD * b.qMax()).At(b.cfg.NominalVoltage)
}

func (b *refBattery) Discharge(req units.Power, dt time.Duration) units.Power {
	secs := dt.Seconds()
	if b.failed || req <= 0 || secs <= 0 || b.Depleted() {
		b.flow(secs)
		return 0
	}
	voc := float64(b.ocv())
	r := b.effectiveOhm()
	i := solveDischargeCurrent(float64(req), voc, r)
	i = math.Min(i, b.maxDischargeCurrent())
	i = math.Min(i, b.availableDischargeCharge()/secs)
	if i <= 0 {
		b.flow(secs)
		return 0
	}
	v := voc - i*r
	delivered := units.Power(v * i)

	drawn := i * secs
	b.wear.recordDischarge(b.cfg, i, b.SoC(), drawn)
	if m := b.thermal.wearMultiplier(b.cfg.Thermal); m != 1 {
		extra := units.Charge(drawn).Ah() * b.wear.lastWeight * (m - 1)
		b.wear.weightedAh += extra
		b.wear.lastWeight *= m
	}
	b.q1 -= drawn
	b.stats.EnergyOut += delivered.Over(dt)
	dissipated := (voc - v) * i
	b.stats.Loss += units.Energy(dissipated * secs)
	b.stats.ThroughputAh += units.Charge(drawn).Ah()
	b.stats.WeightedAh += units.Charge(drawn).Ah() * b.wear.lastWeight
	b.stats.DischargeTime += dt

	refAdvance(&b.thermal, b.cfg.Thermal, dissipated, secs)
	b.flow(secs)
	return delivered
}

func (b *refBattery) Charge(offered units.Power, dt time.Duration) units.Power {
	secs := dt.Seconds()
	if b.failed || offered <= 0 || secs <= 0 {
		b.flow(secs)
		return 0
	}
	head := b.qMax() - (b.q1 + b.q2)
	if head <= 0 {
		b.flow(secs)
		return 0
	}
	voc := float64(b.ocv())
	r := b.cfg.InternalOhm
	i := solveChargeCurrent(float64(offered), voc, r)
	i = math.Min(i, b.cfg.MaxChargeC*b.cfg.CapacityAh*b.thermal.chargeDerate(&b.cfg.Thermal))
	i = math.Min(i, head/(b.cfg.CoulombicEff*secs))
	if i <= 0 {
		b.flow(secs)
		return 0
	}
	v := voc + i*r
	input := units.Power(v * i)

	stored := b.cfg.CoulombicEff * i * secs
	cap1 := b.cfg.C * b.qMax()
	into1 := math.Min(stored, math.Max(0, cap1-b.q1))
	b.q1 += into1
	b.q2 += stored - into1

	storedEnergy := units.Charge(stored).At(units.Voltage(voc))
	b.stats.EnergyIn += input.Over(dt)
	loss := input.Over(dt) - storedEnergy
	b.stats.Loss += loss
	refAdvance(&b.thermal, b.cfg.Thermal, float64(loss)/secs, secs)

	b.flow(secs)
	return input
}

func (b *refBattery) Rest(dt time.Duration) {
	refAdvance(&b.thermal, b.cfg.Thermal, 0, dt.Seconds())
	b.flow(dt.Seconds())
}

func (b *refBattery) flow(secs float64) {
	if secs <= 0 {
		return
	}
	kPerSec := b.cfg.K / 3600
	cap1 := b.cfg.C * b.qMax()
	cap2 := (1 - b.cfg.C) * b.qMax()
	if total := b.q1 + b.q2; total > cap1+cap2 {
		scale := (cap1 + cap2) / total
		b.q1 *= scale
		b.q2 *= scale
	}
	steps := int(math.Ceil(secs * kPerSec / 0.1))
	if steps < 1 {
		steps = 1
	}
	h := secs / float64(steps)
	leak := b.cfg.SelfDischargePerHour / 3600
	for s := 0; s < steps; s++ {
		h1 := b.q1 / cap1
		h2 := b.q2 / cap2
		dq := kPerSec * (h2 - h1) * h * math.Min(cap1, cap2)
		dq = units.Clamp(dq, -b.q1, b.q2)
		dq = math.Min(dq, cap1-b.q1)
		b.q1 += dq
		b.q2 -= dq
		if leak > 0 {
			lost1, lost2 := b.q1*leak*h, b.q2*leak*h
			b.q1 -= lost1
			b.q2 -= lost2
			b.stats.Loss += units.Charge(lost1 + lost2).At(b.ocv())
		}
	}
}

func (b *refBattery) Stats() Stats { return b.stats }

func (b *refBattery) Reset() {
	b.wear = wearTracker{}
	b.q1 = b.cfg.C * b.qMax()
	b.q2 = (1 - b.cfg.C) * b.qMax()
	b.failed = false
	b.thermal = newThermalState(b.cfg.Thermal)
	b.stats = Stats{}
}

func (b *refBattery) PreAge(lifeFraction float64) {
	lifeFraction = units.Clamp(lifeFraction, 0, 1)
	soc := b.SoC()
	b.wear.weightedAh = lifeFraction * b.cfg.Life.ratedThroughputAh(b.cfg.CapacityAh)
	b.SetSoC(soc)
}

func (b *refBattery) SetSoC(frac float64) {
	frac = units.Clamp(frac, 0, 1)
	total := b.qFloor() + frac*(b.qMax()-b.qFloor())
	b.q1 = b.cfg.C * total
	b.q2 = (1 - b.cfg.C) * total
}

func (b *refBattery) Checkpoint() BatteryState {
	return BatteryState{
		Q1:           b.q1,
		Q2:           b.q2,
		Failed:       b.failed,
		TempC:        b.thermal.tempC,
		PeakC:        b.thermal.peakC,
		Stats:        b.stats,
		ThroughputAh: b.wear.throughputAh,
		WeightedAh:   b.wear.weightedAh,
		LastWeight:   b.wear.lastWeight,
		PeakWeight:   b.wear.peakWeight,
	}
}

// refAdvance is the thermal step with its config passed by value and the
// disabled check behind ThermalConfig.Enabled.
func refAdvance(t *thermalState, cfg ThermalConfig, dissipated, secs float64) {
	if !cfg.Enabled() || secs <= 0 {
		return
	}
	target := cfg.AmbientC + math.Max(0, dissipated)*cfg.ThermalResistance
	alpha := 1 - math.Exp(-secs/cfg.TimeConstantSeconds)
	t.tempC += (target - t.tempC) * alpha
	if t.tempC > t.peakC {
		t.peakC = t.tempC
	}
}

// refSupercap is the Supercap step with the DoD-window floor voltage
// recomputed on every use, kept as the oracle for the cached vFloor.
type refSupercap struct {
	cfg                  SupercapConfig
	v                    float64
	failed               bool
	leakSecs, leakFactor float64
	stats                Stats
}

func newRefSupercap(cfg SupercapConfig) *refSupercap {
	s := &refSupercap{cfg: cfg}
	s.Reset()
	return s
}

func (s *refSupercap) vFloor() float64 {
	vmax, vmin := float64(s.cfg.VMax), float64(s.cfg.VMin)
	e := (1 - s.cfg.DoD) * (vmax*vmax - vmin*vmin)
	return math.Sqrt(vmin*vmin + e)
}

func (s *refSupercap) SoC() float64 {
	vmax, vf := float64(s.cfg.VMax), s.vFloor()
	den := vmax*vmax - vf*vf
	if den <= 0 {
		return 0
	}
	return units.Clamp((s.v*s.v-vf*vf)/den, 0, 1)
}

func (s *refSupercap) Voltage() units.Voltage { return units.Voltage(s.v) }

func (s *refSupercap) TerminalVoltage(p units.Power) units.Voltage {
	if p <= 0 {
		return units.Voltage(s.v)
	}
	pw := math.Min(float64(p), float64(s.MaxDischargePower()))
	i := solveDischargeCurrent(pw, s.v, s.cfg.ESR)
	return units.Voltage(s.v - i*s.cfg.ESR)
}

func (s *refSupercap) Stored() units.Energy {
	if s.failed {
		return 0
	}
	vf := s.vFloor()
	if s.v <= vf {
		return 0
	}
	return units.Energy(0.5 * s.cfg.Capacitance * (s.v*s.v - vf*vf))
}

func (s *refSupercap) Capacity() units.Energy {
	vmax, vf := float64(s.cfg.VMax), s.vFloor()
	return units.Energy(0.5 * s.cfg.Capacitance * (vmax*vmax - vf*vf))
}

func (s *refSupercap) Depleted() bool { return s.failed || s.Stored() < 1e-6 }
func (s *refSupercap) Fail()          { s.failed = true }
func (s *refSupercap) Repair()        { s.failed = false }

func (s *refSupercap) MaxDischargePower() units.Power {
	if s.failed || s.Depleted() {
		return 0
	}
	p := s.v * s.v / (4 * s.cfg.ESR)
	if s.cfg.MaxPower > 0 {
		p = math.Min(p, float64(s.cfg.MaxPower))
	}
	return units.Power(p)
}

func (s *refSupercap) MaxChargePower() units.Power {
	vmax := float64(s.cfg.VMax)
	if s.failed || s.v >= vmax {
		return 0
	}
	head := 0.5 * s.cfg.Capacitance * (vmax*vmax - s.v*s.v)
	p := head
	if s.cfg.MaxPower > 0 {
		p = math.Min(p, float64(s.cfg.MaxPower))
	}
	return units.Power(p)
}

func (s *refSupercap) Discharge(req units.Power, dt time.Duration) units.Power {
	secs := dt.Seconds()
	if s.failed || req <= 0 || secs <= 0 || s.Depleted() {
		s.leak(secs)
		return 0
	}
	p := float64(req)
	if s.cfg.MaxPower > 0 {
		p = math.Min(p, float64(s.cfg.MaxPower))
	}
	vf := s.vFloor()
	var delivered, loss float64
	steps := subSteps(secs)
	h := secs / float64(steps)
	for st := 0; st < steps && s.v > vf; st++ {
		i := solveDischargeCurrent(p, s.v, s.cfg.ESR)
		iMax := (s.v - vf) * s.cfg.Capacitance / h
		i = math.Min(i, iMax)
		if i <= 0 {
			break
		}
		vt := s.v - i*s.cfg.ESR
		if vt <= 0 {
			break
		}
		delivered += vt * i * h
		loss += i * i * s.cfg.ESR * h
		s.v -= i * h / s.cfg.Capacitance
	}
	s.stats.EnergyOut += units.Energy(delivered)
	s.stats.Loss += units.Energy(loss)
	s.stats.DischargeTime += dt
	s.leak(secs)
	return units.Energy(delivered).Per(dt)
}

func (s *refSupercap) Charge(offered units.Power, dt time.Duration) units.Power {
	secs := dt.Seconds()
	if s.failed || offered <= 0 || secs <= 0 {
		s.leak(secs)
		return 0
	}
	p := float64(offered)
	if s.cfg.MaxPower > 0 {
		p = math.Min(p, float64(s.cfg.MaxPower))
	}
	vmax := float64(s.cfg.VMax)
	var input, stored float64
	steps := subSteps(secs)
	h := secs / float64(steps)
	for st := 0; st < steps && s.v < vmax; st++ {
		i := solveChargeCurrent(p, s.v, s.cfg.ESR)
		iMax := (vmax - s.v) * s.cfg.Capacitance / h
		i = math.Min(i, iMax)
		if i <= 0 {
			break
		}
		vt := s.v + i*s.cfg.ESR
		input += vt * i * h
		stored += s.v * i * h
		s.v += i * h / s.cfg.Capacitance
	}
	s.stats.EnergyIn += units.Energy(input)
	s.stats.Loss += units.Energy(input - stored)
	s.leak(secs)
	return units.Energy(input).Per(dt)
}

func (s *refSupercap) Rest(dt time.Duration) { s.leak(dt.Seconds()) }

func (s *refSupercap) leak(secs float64) {
	if secs <= 0 || s.cfg.SelfDischargePerHour == 0 {
		return
	}
	before := float64(s.Stored())
	if secs != s.leakSecs {
		s.leakSecs = secs
		s.leakFactor = math.Sqrt(math.Pow(1-s.cfg.SelfDischargePerHour, secs/3600))
	}
	s.v *= s.leakFactor
	vmin := float64(s.cfg.VMin)
	if s.v < vmin {
		s.v = vmin
	}
	after := float64(s.Stored())
	if before > after {
		s.stats.Loss += units.Energy(before - after)
	}
}

func (s *refSupercap) Stats() Stats { return s.stats }

func (s *refSupercap) Reset() {
	s.v = float64(s.cfg.VMax)
	s.failed = false
	s.stats = Stats{}
}

func (s *refSupercap) SetSoC(frac float64) {
	frac = units.Clamp(frac, 0, 1)
	vmax, vf := float64(s.cfg.VMax), s.vFloor()
	s.v = math.Sqrt(vf*vf + frac*(vmax*vmax-vf*vf))
}

func (s *refSupercap) Checkpoint() SupercapState {
	return SupercapState{V: s.v, Failed: s.failed, Stats: s.stats}
}

// oracleDevice is the method set FuzzDeviceMatchesReference drives on a
// live device and on its reference alike.
type oracleDevice interface {
	Device
	TerminalVoltage(units.Power) units.Voltage
	SetSoC(float64)
	Fail()
	Repair()
}

// oracleCase pairs a live device with its reference, both fresh from one
// config.
type oracleCase struct {
	name      string
	live, ref func() oracleDevice
}

func oracleCases() []oracleCase {
	thermal := DefaultBatteryConfig()
	thermal.Thermal = DefaultThermalConfig()
	aging := DefaultBatteryConfig()
	aging.FadeAtEOL = 0.3
	aging.ResistanceGrowthAtEOL = 1
	aging.Life.RatedCycles = 3 // a short rated life, so discharges move the wear clock
	agingThermal := aging
	agingThermal.Thermal = DefaultThermalConfig()
	windowed := DefaultSupercapConfig()
	windowed.DoD = 0.6
	windowed.MaxPower = 1500
	windowed.SelfDischargePerHour = 0.05

	var cases []oracleCase
	for _, c := range []struct {
		name string
		cfg  BatteryConfig
	}{
		{"battery/default", DefaultBatteryConfig()},
		{"battery/liion", LiIonBatteryConfig()},
		{"battery/thermal", thermal},
		{"battery/aging", aging},
		{"battery/aging+thermal", agingThermal},
	} {
		cases = append(cases, oracleCase{c.name,
			func() oracleDevice { return MustNewBattery(c.cfg) },
			func() oracleDevice { return newRefBattery(c.cfg) }})
	}
	for _, c := range []struct {
		name string
		cfg  SupercapConfig
	}{
		{"supercap/default", DefaultSupercapConfig()},
		{"supercap/windowed", windowed},
	} {
		cases = append(cases, oracleCase{c.name,
			func() oracleDevice { return MustNewSupercap(c.cfg) },
			func() oracleDevice { return newRefSupercap(c.cfg) }})
	}
	return cases
}

// appendBits flattens a checkpoint struct into the bit patterns of its
// fields, so that -0 and NaN compare exactly.
func appendBits(dst []uint64, v reflect.Value) []uint64 {
	switch v.Kind() {
	case reflect.Float64:
		return append(dst, math.Float64bits(v.Float()))
	case reflect.Int64:
		return append(dst, uint64(v.Int()))
	case reflect.Bool:
		if v.Bool() {
			return append(dst, 1)
		}
		return append(dst, 0)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			dst = appendBits(dst, v.Field(i))
		}
		return dst
	}
	panic(fmt.Sprintf("appendBits: unhandled kind %v", v.Kind()))
}

func checkpointOf(d oracleDevice) any {
	switch v := d.(type) {
	case *Battery:
		return v.Checkpoint()
	case *refBattery:
		return v.Checkpoint()
	case *Supercap:
		return v.Checkpoint()
	case *refSupercap:
		return v.Checkpoint()
	}
	panic(fmt.Sprintf("checkpointOf: %T", d))
}

func boolBits(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// observe returns the bits of every read-only query the engine and the
// probes make, at load p, followed by the checkpoint.
func observe(d oracleDevice, p units.Power) []uint64 {
	out := []uint64{
		math.Float64bits(d.SoC()),
		math.Float64bits(float64(d.Voltage())),
		math.Float64bits(float64(d.TerminalVoltage(p))),
		math.Float64bits(float64(d.MaxDischargePower())),
		math.Float64bits(float64(d.MaxChargePower())),
		boolBits(d.Depleted()),
		math.Float64bits(float64(d.Stored())),
		math.Float64bits(float64(d.Capacity())),
	}
	return appendBits(out, reflect.ValueOf(checkpointOf(d)))
}

var observed = []string{"SoC", "Voltage", "TerminalVoltage", "MaxDischargePower",
	"MaxChargePower", "Depleted", "Stored", "Capacity"}

// deviceOp is one decoded fuzz operation: an opcode, the load or
// fraction it takes, and its step length.
type deviceOp struct {
	code byte
	p    units.Power
	frac float64
	dt   time.Duration
}

// decodeOp reads three bytes: the opcode, a magnitude (power or fraction)
// and a step-length selector (1 s or 600 s, so the battery's flow
// sub-steps more than once and its memo sees dt change).
func decodeOp(b []byte) deviceOp {
	op := deviceOp{
		code: b[0] % 8,
		p:    units.Power(float64(b[1]) * float64(b[1]) / 32),
		frac: (float64(b[1]) - 16) / 224,
		dt:   time.Second,
	}
	if b[2]&1 == 1 {
		op.dt = 600 * time.Second
	}
	return op
}

func (op deviceOp) String() string {
	switch op.code {
	case 0:
		return fmt.Sprintf("Charge(%v, %v)", op.p, op.dt)
	case 1:
		return fmt.Sprintf("Discharge(%v, %v)", op.p, op.dt)
	case 2:
		return fmt.Sprintf("Rest(%v)", op.dt)
	case 3:
		return fmt.Sprintf("PreAge(%g)", op.frac)
	case 4:
		return fmt.Sprintf("SetSoC(%g)", op.frac)
	}
	return [...]string{5: "Reset()", 6: "Fail()", 7: "Repair()"}[op.code]
}

// apply runs op on d and returns the power a transfer moved (0 for the
// other operations).
func (op deviceOp) apply(d oracleDevice) units.Power {
	switch op.code {
	case 0:
		return d.Charge(op.p, op.dt)
	case 1:
		return d.Discharge(op.p, op.dt)
	case 2:
		d.Rest(op.dt)
	case 3:
		if a, ok := d.(interface{ PreAge(float64) }); ok {
			a.PreAge(op.frac)
		}
	case 4:
		d.SetSoC(op.frac)
	case 5:
		d.Reset()
	case 6:
		d.Fail()
	case 7:
		d.Repair()
	}
	return 0
}

// FuzzDeviceMatchesReference drives each live device and its reference
// through the same operation sequence (see decodeOp) and requires every
// return value, every query and the checkpoint to agree bit for bit
// after each step.
func FuzzDeviceMatchesReference(f *testing.F) {
	f.Add([]byte{1, 200, 0, 1, 200, 1, 2, 0, 1, 0, 255, 1, 0, 40, 0})
	f.Add([]byte{3, 128, 0, 1, 120, 1, 5, 0, 0, 1, 120, 1, 3, 255, 1, 0, 90, 1})
	f.Add([]byte{4, 20, 0, 1, 255, 1, 1, 255, 1, 6, 0, 0, 1, 80, 0, 7, 0, 0, 0, 0, 1})
	for seed := int64(1); seed <= 6; seed++ {
		buf := make([]byte, 3*120)
		rand.New(rand.NewSource(seed)).Read(buf)
		f.Add(buf)
	}
	cases := oracleCases()
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*256 {
			ops = ops[:3*256]
		}
		for _, c := range cases {
			live, ref := c.live(), c.ref()
			for n := 0; n+3 <= len(ops); n += 3 {
				op := decodeOp(ops[n : n+3])
				got := append([]uint64{math.Float64bits(float64(op.apply(live)))}, observe(live, op.p)...)
				want := append([]uint64{math.Float64bits(float64(op.apply(ref)))}, observe(ref, op.p)...)
				for k := range want {
					if got[k] == want[k] {
						continue
					}
					name := "return value"
					switch {
					case k > len(observed):
						name = fmt.Sprint("checkpoint field ", k-1-len(observed))
					case k > 0:
						name = observed[k-1]
					}
					t.Fatalf("%s: op %d (%v): %s = %v, reference %v", c.name, n/3, op, name,
						math.Float64frombits(got[k]), math.Float64frombits(want[k]))
				}
			}
		}
	})
}
