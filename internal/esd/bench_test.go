package esd

import (
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
