package esd

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"heb/internal/jsonenc"
	"heb/internal/units"
)

func TestNewPoolValidation(t *testing.T) {
	if _, err := NewPool("empty"); err == nil {
		t.Error("NewPool accepted zero members")
	}
	if _, err := NewPool("nil", nil); err == nil {
		t.Error("NewPool accepted a nil member")
	}
	p, err := NewPool("ok", MustNewBattery(DefaultBatteryConfig()))
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	if p.Name() != "ok" || p.Size() != 1 {
		t.Errorf("pool metadata wrong: name %q size %d", p.Name(), p.Size())
	}
}

func TestPoolAggregates(t *testing.T) {
	b1 := MustNewBattery(DefaultBatteryConfig())
	b2 := MustNewBattery(DefaultBatteryConfig())
	p := MustNewPool("batteries", b1, b2)

	if got, want := float64(p.Capacity()), 2*float64(b1.Capacity()); math.Abs(got-want) > 1e-6 {
		t.Errorf("pool capacity %g, want %g", got, want)
	}
	if got, want := float64(p.Stored()), 2*float64(b1.Stored()); math.Abs(got-want) > 1e-6 {
		t.Errorf("pool stored %g, want %g", got, want)
	}
	if soc := p.SoC(); math.Abs(soc-1) > 1e-9 {
		t.Errorf("pool SoC %g, want 1", soc)
	}
	single := b1.MaxDischargePower()
	if got := p.MaxDischargePower(); math.Abs(float64(got-2*single)) > 1e-6 {
		t.Errorf("pool max discharge %v, want %v", got, 2*single)
	}
}

func TestPoolDischargeSplitsLoad(t *testing.T) {
	b1 := MustNewBattery(DefaultBatteryConfig())
	b2 := MustNewBattery(DefaultBatteryConfig())
	p := MustNewPool("batteries", b1, b2)
	got := p.Discharge(140, time.Second)
	if float64(got) < 139 {
		t.Fatalf("pool delivered %v of 140W", got)
	}
	// Identical members should share nearly equally.
	o1, o2 := b1.Stats().EnergyOut, b2.Stats().EnergyOut
	if o1 <= 0 || o2 <= 0 {
		t.Fatalf("a member delivered nothing: %v, %v", o1, o2)
	}
	ratio := float64(o1) / float64(o2)
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("unequal split between identical members: ratio %.3f", ratio)
	}
}

func TestPoolDischargeMoreThanOneMemberCanServe(t *testing.T) {
	// A load beyond one member's capability must still be served by two.
	b1 := MustNewBattery(DefaultBatteryConfig())
	single := float64(b1.MaxDischargePower())
	b1.Reset()
	b2 := MustNewBattery(DefaultBatteryConfig())
	p := MustNewPool("batteries", b1, b2)
	req := units.Power(single * 1.5)
	got := p.Discharge(req, time.Second)
	if float64(got) < 0.9*float64(req) {
		t.Errorf("pool delivered %v of %v despite having 2x capability", got, req)
	}
}

func TestPoolDepletionAndTakeover(t *testing.T) {
	// Mixed pool: when the small member empties, the big one carries on.
	small := DefaultBatteryConfig()
	small.CapacityAh = 2
	big := DefaultBatteryConfig()
	big.CapacityAh = 16
	p := MustNewPool("mixed", MustNewBattery(small), MustNewBattery(big))
	dt := 10 * time.Second
	sustained := 0
	for i := 0; i < 100000; i++ {
		if got := p.Discharge(100, dt); got < 99 {
			break
		}
		sustained++
	}
	if sustained == 0 {
		t.Fatal("pool never sustained the load")
	}
	// The run ends when the survivors can no longer carry the load over
	// a full step: a fresh attempt at the same load must still fall
	// short (MaxDischargePower is instantaneous, so an actual discharge
	// is the honest probe here).
	if got := p.Discharge(100, dt); got >= 99 {
		t.Errorf("pool delivered %v right after failing the same load", got)
	}
}

func TestPoolChargePrioritizesAcceptance(t *testing.T) {
	b := MustNewBattery(DefaultBatteryConfig())
	s := MustNewSupercap(DefaultSupercapConfig())
	// Drain both.
	for !b.Depleted() {
		b.Discharge(100, 10*time.Second)
	}
	for !s.Depleted() {
		s.Discharge(300, 10*time.Second)
	}
	p := MustNewPool("hybrid", b, s)
	accepted := p.Charge(2000, time.Second)
	// The SC can take nearly everything; the battery is capped at
	// MaxChargeC (0.25C·8Ah = 2A ≈ 50W). Most must land on the SC.
	if float64(accepted) < 1500 {
		t.Errorf("hybrid pool accepted %v of 2kW; SC should absorb most", accepted)
	}
	if in := s.Stats().EnergyIn; in <= 0 {
		t.Error("SC absorbed nothing")
	}
	bIn := b.Stats().EnergyIn
	sIn := s.Stats().EnergyIn
	if bIn >= sIn {
		t.Errorf("battery absorbed %v >= SC %v; charge cap not respected", bIn, sIn)
	}
}

func TestPoolStatsSumMembers(t *testing.T) {
	b1 := MustNewBattery(DefaultBatteryConfig())
	b2 := MustNewBattery(DefaultBatteryConfig())
	p := MustNewPool("batteries", b1, b2)
	p.Discharge(120, time.Minute)
	sum := p.Stats()
	want := b1.Stats().EnergyOut + b2.Stats().EnergyOut
	if math.Abs(float64(sum.EnergyOut-want)) > 1e-9 {
		t.Errorf("pool EnergyOut %v, want %v", sum.EnergyOut, want)
	}
}

func TestPoolWearAggregation(t *testing.T) {
	b := MustNewBattery(DefaultBatteryConfig())
	s := MustNewSupercap(DefaultSupercapConfig())
	p := MustNewPool("hybrid", b, s)
	p.Discharge(150, time.Minute)
	report, n := p.Wear()
	if n != 1 {
		t.Fatalf("Wear found %d batteries, want 1", n)
	}
	if report.ThroughputAh <= 0 {
		t.Error("battery wear not aggregated")
	}
	if report.RatedAh <= 0 || report.LifeFractionUsed <= 0 {
		t.Errorf("wear report incomplete: %+v", report)
	}
}

func TestPoolResetAndRest(t *testing.T) {
	b := MustNewBattery(DefaultBatteryConfig())
	p := MustNewPool("batteries", b)
	p.Discharge(100, time.Minute)
	p.Rest(time.Hour)
	p.Reset()
	if soc := p.SoC(); math.Abs(soc-1) > 1e-9 {
		t.Errorf("after Reset pool SoC %g, want 1", soc)
	}
}

func TestPoolZeroRequestRestsMembers(t *testing.T) {
	b := MustNewBattery(DefaultBatteryConfig())
	p := MustNewPool("batteries", b)
	if got := p.Discharge(0, time.Minute); got != 0 {
		t.Errorf("Discharge(0) = %v", got)
	}
	if got := p.Charge(0, time.Minute); got != 0 {
		t.Errorf("Charge(0) = %v", got)
	}
}

// poolView renders every aggregate a pool reports as JSON, whose floats
// are in shortest round-trip form (the units types' String methods would
// round), so two views are equal exactly when every value matches bit
// for bit. The checkpoint is in the view twice, through json.Marshal and
// through AppendJSON, which must write Marshal's bytes.
func poolView(t *testing.T, p *Pool) string {
	t.Helper()
	ckpt, err := CheckpointDevice(p)
	if err != nil {
		t.Fatal(err)
	}
	o := jsonenc.Object{}
	ckpt.AppendJSON(&o)
	if want, err := json.Marshal(ckpt); err != nil || o.Err != nil || string(o.B) != string(want) {
		t.Fatalf("checkpoint appender wrote %s (%v), json.Marshal %s (%v)", o.B, o.Err, want, err)
	}
	wear, n := p.Wear()
	b, err := json.Marshal(struct {
		SoC, Stored, Capacity, Voltage, TVIdle, TVLoaded, MaxDischarge, MaxCharge float64
		Depleted                                                                  bool
		Stats                                                                     Stats
		Wear                                                                      WearReport
		Batteries                                                                 int
		Checkpoint                                                                DeviceState
		Appended                                                                  json.RawMessage
	}{
		p.SoC(), float64(p.Stored()), float64(p.Capacity()), float64(p.Voltage()),
		float64(p.TerminalVoltage(0)), float64(p.TerminalVoltage(p.MaxDischargePower() / 3)),
		float64(p.MaxDischargePower()), float64(p.MaxChargePower()),
		p.Depleted(), p.Stats(), wear, n, ckpt, o.B,
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestUniformPoolMatchesPerMemberPool drives a uniform pool and a NewPool
// of independently built identical members through one seeded random
// sequence of charges, discharges and rests, including zero requests and
// requests past capacity. Seven members catch a sum replaced by a
// product, which happens to round alike for powers of two. Before each
// call both pools make a random mix of the capability reads a tick makes
// (MaxDischargePower, MaxChargePower, TerminalVoltage), which must agree
// too. After every call the two must agree bit for bit on each
// aggregate, Stats, Wear and the checkpoint; they must still agree once a
// fault injected through Members ends the fast path.
func TestUniformPoolMatchesPerMemberPool(t *testing.T) {
	batCfg := agingConfig()
	batCfg.Thermal = DefaultThermalConfig()
	scCfg := DefaultSupercapConfig()
	protos := []struct {
		kind  string
		build func() Device
	}{
		{"battery", func() Device {
			b := MustNewBattery(batCfg)
			b.PreAge(0.3)
			return b
		}},
		{"supercap", func() Device { return MustNewSupercap(scCfg) }},
	}
	for _, proto := range protos {
		kind, build := proto.kind, proto.build
		for _, n := range []int{2, 7, 32} {
			t.Run(fmt.Sprintf("%s/x%d", kind, n), func(t *testing.T) {
				uni, err := NewUniformPool(kind, n, build())
				if err != nil {
					t.Fatal(err)
				}
				members := make([]Device, n)
				for i := range members {
					members[i] = build()
				}
				ref := MustNewPool(kind, members...)
				rng := rand.New(rand.NewSource(int64(n)))
				// The reads draw from their own source, so the call
				// sequence stays the one rng alone makes.
				reads := rand.New(rand.NewSource(int64(-n)))
				step := func(i int) {
					t.Helper()
					for r := reads.Intn(4); r > 0; r-- {
						var got, want units.Power
						read := reads.Intn(3)
						switch read {
						case 0:
							got, want = uni.MaxDischargePower(), ref.MaxDischargePower()
						case 1:
							got, want = uni.MaxChargePower(), ref.MaxChargePower()
						default:
							load := units.Power(reads.Float64()) * ref.MaxDischargePower()
							got, want = units.Power(uni.TerminalVoltage(load)), units.Power(ref.TerminalVoltage(load))
						}
						if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
							t.Fatalf("call %d: %s read %g, per-member pool %g", i,
								[...]string{"MaxDischargePower", "MaxChargePower", "TerminalVoltage"}[read], float64(got), float64(want))
						}
					}
					limit := float64(ref.MaxDischargePower())
					if rng.Intn(2) == 0 {
						limit = float64(ref.MaxChargePower())
					}
					var req units.Power
					switch r := rng.Float64(); {
					case r < 0.1: // zero request
					case r < 0.2: // far past capacity
						req = units.Power(10*limit + 1e4)
					default:
						req = units.Power(rng.Float64() * 1.2 * limit)
					}
					dt := time.Duration(1+rng.Intn(30)) * time.Second
					var got, want units.Power
					switch op := rng.Intn(5); {
					case op < 2:
						got, want = uni.Discharge(req, dt), ref.Discharge(req, dt)
					case op < 4:
						got, want = uni.Charge(req, dt), ref.Charge(req, dt)
					default:
						uni.Rest(dt)
						ref.Rest(dt)
					}
					if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
						t.Fatalf("call %d moved %g W, per-member pool %g W", i, float64(got), float64(want))
					}
					if u, r := poolView(t, uni), poolView(t, ref); u != r {
						t.Fatalf("call %d diverged:\nuniform:\n%s\nper-member:\n%s", i, u, r)
					}
				}
				for i := 0; i < 400; i++ {
					step(i)
				}
				if !uni.Uniform() {
					t.Fatal("checkpointing and aggregates ended the uniform fast path")
				}
				if ref.Uniform() {
					t.Fatal("NewPool built a uniform pool")
				}
				// Step once more: a checkpoint never syncs the stale
				// members, so Members itself must bring them up to date.
				for _, p := range []*Pool{uni, ref} {
					p.Discharge(p.MaxDischargePower()/2, time.Minute)
					switch m := p.Members()[1].(type) {
					case *Battery:
						m.Fail()
					case *Supercap:
						m.Fail()
					}
				}
				if uni.Uniform() {
					t.Fatal("Members left the pool uniform")
				}
				for i := 400; i < 600; i++ {
					step(i)
				}
			})
		}
	}
}

// TestUniformCheckpointAllocsIndependentOfSize pins a uniform pool's
// checkpoint to its one distinct device: CheckpointDevice plus AppendJSON
// into a reused buffer allocates as often at x32 as at x2.
func TestUniformCheckpointAllocsIndependentOfSize(t *testing.T) {
	for _, proto := range []Device{MustNewBattery(DefaultBatteryConfig()), MustNewSupercap(DefaultSupercapConfig())} {
		var allocs [2]float64
		for i, n := range []int{2, 32} {
			p, err := NewUniformPool("pool", n, proto)
			if err != nil {
				t.Fatal(err)
			}
			p.Discharge(p.MaxDischargePower()/2, time.Minute)
			var buf []byte
			allocs[i] = testing.AllocsPerRun(20, func() {
				st, err := CheckpointDevice(p)
				if err != nil {
					t.Fatal(err)
				}
				o := jsonenc.Object{B: buf[:0]}
				st.AppendJSON(&o)
				buf = o.B
			})
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%T pool checkpoint: %v allocs at x2, %v at x32", proto, allocs[0], allocs[1])
		}
	}
}

func TestNewUniformPoolValidation(t *testing.T) {
	if _, err := NewUniformPool("empty", 0, MustNewBattery(DefaultBatteryConfig())); err == nil {
		t.Error("NewUniformPool accepted zero members")
	}
	if _, err := NewUniformPool("nil", 2, nil); err == nil {
		t.Error("NewUniformPool accepted a nil prototype")
	}
	if _, err := NewUniformPool("null", 2, Null{}); err == nil {
		t.Error("NewUniformPool accepted a device it cannot copy")
	}
	proto := MustNewBattery(DefaultBatteryConfig())
	p, err := NewUniformPool("ok", 3, proto)
	if err != nil {
		t.Fatal(err)
	}
	proto.Discharge(50, time.Minute)
	if p.Size() != 3 || p.SoC() != 1 || p.Members()[0] == Device(proto) {
		t.Error("uniform pool shares state with its prototype")
	}
}
