package esd

import (
	"fmt"
	"testing"
	"time"
)

func BenchmarkBatteryDischargeStep(b *testing.B) {
	bat := MustNewBattery(DefaultBatteryConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bat.Discharge(70, time.Second) < 35 {
			bat.SetSoC(1)
		}
	}
}

func BenchmarkBatteryChargeStep(b *testing.B) {
	bat := MustNewBattery(DefaultBatteryConfig())
	bat.SetSoC(0.2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bat.Charge(60, time.Second) <= 0 {
			bat.SetSoC(0.2)
		}
	}
}

func BenchmarkSupercapDischargeStep(b *testing.B) {
	sc := MustNewSupercap(DefaultSupercapConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sc.Discharge(200, time.Second) < 100 {
			sc.SetSoC(1)
		}
	}
}

func BenchmarkSupercapRest(b *testing.B) {
	sc := MustNewSupercap(DefaultSupercapConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Rest(time.Second)
		if i%100000 == 0 { // recharge before the leak drains it to VMin
			sc.SetSoC(1)
		}
	}
}

func BenchmarkHybridPoolDischarge(b *testing.B) {
	pool := MustNewPool("hybrid",
		MustNewBattery(DefaultBatteryConfig()),
		MustNewSupercap(DefaultSupercapConfig()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pool.Discharge(150, time.Second) < 75 {
			pool.SetSoC(1)
		}
	}
}

func BenchmarkThermalBatteryDischargeStep(b *testing.B) {
	cfg := DefaultBatteryConfig()
	cfg.Thermal = DefaultThermalConfig()
	bat := MustNewBattery(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bat.Discharge(70, time.Second) < 35 {
			bat.SetSoC(1)
		}
	}
}

// BenchmarkAgedBatteryDischargeStep prices capacity fade: with FadeAtEOL
// set, every discharge moves the wear clock and so refreshes the cached
// capacity terms.
func BenchmarkAgedBatteryDischargeStep(b *testing.B) {
	bat := MustNewBattery(agingConfig())
	bat.PreAge(0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bat.Discharge(70, time.Second) < 35 {
			bat.SetSoC(1)
		}
	}
}

// BenchmarkUniformPoolTransfer prices the uniform fast path: a battery
// pool built by NewUniformPool against one of the same size built with
// NewPool, which steps every member. Each op is one discharge and one
// charge step at half the pool's charge acceptance.
func BenchmarkUniformPoolTransfer(b *testing.B) {
	cfg := DefaultBatteryConfig()
	for _, n := range []int{2, 32} {
		uniform, err := NewUniformPool("battery", n, MustNewBattery(cfg))
		if err != nil {
			b.Fatal(err)
		}
		members := make([]Device, n)
		for i := range members {
			members[i] = MustNewBattery(cfg)
		}
		pools := []struct {
			name string
			pool *Pool
		}{
			{"uniform", uniform},
			{"newpool", MustNewPool("battery", members...)},
		}
		for _, c := range pools {
			b.Run(fmt.Sprintf("%s/x%d", c.name, n), func(b *testing.B) {
				p := c.pool
				p.SetSoC(0.5)
				load := p.MaxChargePower() / 2
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%1024 == 0 { // undo the round-trip losses
						p.SetSoC(0.5)
					}
					p.Discharge(load, time.Second)
					p.Charge(load, time.Second)
				}
			})
		}
	}
}

// BenchmarkUniformPoolCapThenDischarge prices the pair of calls a
// mismatch tick makes of each pool: MaxDischargePower, the capability
// the engine assigns servers against, then Discharge at half of it.
func BenchmarkUniformPoolCapThenDischarge(b *testing.B) {
	for _, n := range []int{2, 32} {
		p, err := NewUniformPool("battery", n, MustNewBattery(DefaultBatteryConfig()))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("x%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%256 == 0 { // top up before the load drains the pool
					p.SetSoC(0.9)
				}
				p.Discharge(p.MaxDischargePower()/2, time.Second)
			}
		})
	}
}
