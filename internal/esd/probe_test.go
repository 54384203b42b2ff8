package esd

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"heb/internal/units"
)

// foreignDevice hides a member's concrete type, so the pool reaches it
// through the Device interface alone; it is not a Prober.
type foreignDevice struct{ Device }

// readPathPools builds the pool shapes the per-step read paths branch on:
// uniform battery and super-capacitor pools, a uniform pool whose
// members diverge once Members hands them out (de-uniform is called
// mid-run), and a NewPool of a foreign device, a nested pool, a bare
// super-capacitor and Null.
func readPathPools() []struct {
	name string
	pool *Pool
	// deUniform, when set, ends the uniform fast path and makes the
	// members differ.
	deUniform func(*Pool)
} {
	aged := func() *Battery {
		b := MustNewBattery(agingConfig())
		b.PreAge(0.3)
		return b
	}
	mustUniform := func(name string, n int, proto Device) *Pool {
		p, err := NewUniformPool(name, n, proto)
		if err != nil {
			panic(err)
		}
		return p
	}
	diverge := func(p *Pool) {
		m := p.Members()
		m[1].Discharge(m[1].MaxDischargePower()/2, time.Minute)
		if b, ok := m[len(m)-1].(*Battery); ok {
			b.Fail()
		}
	}
	return []struct {
		name      string
		pool      *Pool
		deUniform func(*Pool)
	}{
		{"uniform/battery/x7", mustUniform("battery", 7, aged()), nil},
		{"uniform/supercap/x3", mustUniform("supercap", 3, MustNewSupercap(DefaultSupercapConfig())), nil},
		{"de-uniformed/battery/x5", mustUniform("battery", 5, aged()), diverge},
		{"foreign", MustNewPool("mixed",
			foreignDevice{aged()},
			MustNewPool("nested", aged(), MustNewBattery(DefaultBatteryConfig())),
			MustNewSupercap(DefaultSupercapConfig()),
			Null{},
			aged(),
		), nil},
	}
}

// runReadPath steps p through a seeded random sequence of discharges,
// charges and rests (zero and past-capacity requests included), calling
// check after each one; halfway through it applies deUniform.
func runReadPath(p *Pool, deUniform func(*Pool), check func(call int)) {
	rng := rand.New(rand.NewSource(int64(p.Size())))
	for call := 0; call < 400; call++ {
		if call == 200 && deUniform != nil {
			deUniform(p)
		}
		limit := float64(p.MaxDischargePower())
		discharge := rng.Intn(2) == 0
		if !discharge {
			limit = float64(p.MaxChargePower())
		}
		var req units.Power
		switch r := rng.Float64(); {
		case r < 0.1:
		case r < 0.2:
			req = units.Power(10*limit + 1e4)
		default:
			req = units.Power(rng.Float64() * 1.2 * limit)
		}
		dt := time.Duration(1+rng.Intn(30)) * time.Second
		switch {
		case rng.Intn(5) == 4:
			p.Rest(dt)
		case discharge:
			p.Discharge(req, dt)
		default:
			p.Charge(req, dt)
		}
		check(call)
	}
}

func sameBits(a, b units.Energy) bool {
	return math.Float64bits(float64(a)) == math.Float64bits(float64(b))
}

// TestPoolMetersMatchStats holds Meters, the invariant checker's per-step
// ledger read, to Stats bit for bit on every pool shape.
func TestPoolMetersMatchStats(t *testing.T) {
	for _, tc := range readPathPools() {
		t.Run(tc.name, func(t *testing.T) {
			runReadPath(tc.pool, tc.deUniform, func(call int) {
				in, out := tc.pool.Meters()
				s := tc.pool.Stats()
				if !sameBits(in, s.EnergyIn) || !sameBits(out, s.EnergyOut) {
					t.Fatalf("call %d: Meters (%v, %v), Stats (%v, %v)", call,
						float64(in), float64(out), float64(s.EnergyIn), float64(s.EnergyOut))
				}
			})
			if tc.deUniform != nil && tc.pool.Uniform() {
				t.Fatal("the de-uniformed pool is still uniform")
			}
		})
	}
}

// boundsFields is the part of a snapshot ProbeMemberInto writes when
// full is false.
func boundsFields(s ProbeSnapshot) [7]float64 {
	return [7]float64{s.SoC, s.VoltageV, s.VMinV, s.VMaxV, s.AvailAh, s.BoundAh, s.CapacityAh}
}

// TestProbeMemberIntoMatchesProbeMember holds the in-place snapshot,
// written over a buffer full of stale values, to a full read into a
// zeroed snapshot: whole when full, on the bounds fields otherwise. A
// uniform pool's members all report member 0's snapshot, which the
// checker's aliasing relies on.
func TestProbeMemberIntoMatchesProbeMember(t *testing.T) {
	stale := ProbeSnapshot{SoC: -7, VoltageV: -7, VMinV: -7, VMaxV: -7, AvailAh: -7, BoundAh: -7,
		CapacityAh: -7, ThroughputAh: -7, EnergyInWh: -7, EnergyOutWh: -7, LossWh: -7, StoredWh: -7, CapacityWh: -7}
	for _, tc := range readPathPools() {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.pool
			runReadPath(p, tc.deUniform, func(call int) {
				for i := range p.Size() {
					var want, first ProbeSnapshot
					p.ProbeMemberInto(i, &want, true)
					p.ProbeMemberInto(0, &first, true)
					if p.Uniform() && want != first {
						t.Fatalf("call %d: uniform member %d snapshot differs from member 0's", call, i)
					}
					full := stale
					p.ProbeMemberInto(i, &full, true)
					if full != want {
						t.Fatalf("call %d member %d: full read %+v over stale values, %+v over zero", call, i, full, want)
					}
					part := stale
					p.ProbeMemberInto(i, &part, false)
					if boundsFields(part) != boundsFields(want) {
						t.Fatalf("call %d member %d: bounds read %+v over stale values, %+v over zero", call, i, part, want)
					}
				}
			})
		})
	}
}
