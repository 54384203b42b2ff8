package sim

import (
	"math"
	"testing"
	"time"

	"heb/internal/core"
	"heb/internal/esd"
	"heb/internal/forecast"
	"heb/internal/pat"
	"heb/internal/power"
	"heb/internal/trace"
	"heb/internal/units"
)

// rig bundles a standard six-server test setup.
type rig struct {
	servers  []*power.Server
	battery  *esd.Pool
	supercap *esd.Pool
	feed     *power.UtilityFeed
}

func newRig(t *testing.T, budget units.Power) *rig {
	t.Helper()
	servers := make([]*power.Server, 6)
	for i := range servers {
		servers[i] = power.MustNewServer(i, power.DefaultServerConfig())
	}
	return &rig{
		servers:  servers,
		battery:  esd.MustNewPool("battery", esd.MustNewBattery(esd.DefaultBatteryConfig())),
		supercap: esd.MustNewPool("supercap", esd.MustNewSupercap(esd.DefaultSupercapConfig())),
		feed:     power.MustNewUtilityFeed(budget),
	}
}

// flatTrace builds a constant-utilization trace.
func flatTrace(util float64, servers int, duration, step time.Duration) *trace.Trace {
	tr := trace.MustNew("flat", step, servers, int(duration/step))
	for i := range tr.Samples {
		for j := range tr.Samples[i] {
			tr.Samples[i][j] = util
		}
	}
	return tr
}

// squareTrace alternates between low and high utilization with the given
// period (half low, half high).
func squareTrace(low, high float64, period time.Duration, servers int, duration, step time.Duration) *trace.Trace {
	tr := trace.MustNew("square", step, servers, int(duration/step))
	for i := range tr.Samples {
		tt := time.Duration(i) * step
		u := low
		if (tt/(period/2))%2 == 1 {
			u = high
		}
		for j := range tr.Samples[i] {
			tr.Samples[i][j] = u
		}
	}
	return tr
}

func controller(t *testing.T, scheme core.Scheme, budget units.Power) *core.Controller {
	t.Helper()
	return core.MustNewController(core.Config{
		SmallPeakWatts: 40,
		Budget:         budget,
		NumServers:     6,
		// Naive predictors keep slot decisions deterministic and
		// responsive over short test runs.
		PeakPredictor:   forecast.NewNaive(),
		ValleyPredictor: forecast.NewNaive(),
	}, scheme)
}

func baseConfig(r *rig, w *trace.Trace, c *core.Controller) Config {
	return Config{
		Step:       time.Second,
		Slot:       2 * time.Minute,
		Servers:    r.servers,
		Workload:   w,
		Battery:    r.battery,
		Supercap:   r.supercap,
		Feed:       r.feed,
		Controller: c,
	}
}

func TestConfigValidation(t *testing.T) {
	r := newRig(t, 260)
	w := flatTrace(0.5, 6, 10*time.Minute, time.Second)
	good := baseConfig(r, w, controller(t, core.NewSCFirst(), 260))

	if _, err := New(good); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := good
	bad.Servers = nil
	if _, err := New(bad); err == nil {
		t.Error("accepted zero servers")
	}
	bad = good
	bad.Workload = flatTrace(0.5, 3, time.Minute, time.Second) // wrong width
	if _, err := New(bad); err == nil {
		t.Error("accepted mismatched workload width")
	}
	bad = good
	bad.Battery = nil
	if _, err := New(bad); err == nil {
		t.Error("accepted missing battery")
	}
	bad = good
	bad.Controller = nil
	if _, err := New(bad); err == nil {
		t.Error("accepted missing controller")
	}
	bad = good
	bad.Slot = time.Millisecond
	if _, err := New(bad); err == nil {
		t.Error("accepted slot < step")
	}
	bad = good
	bad.Duration = -time.Hour
	if _, err := New(bad); err == nil {
		t.Error("accepted negative duration")
	}
}

func TestNoMismatchMeansNoDowntimeAndNoDischarge(t *testing.T) {
	// Budget 500 W > 6 servers at peak (420 W): never a mismatch.
	r := newRig(t, 500)
	w := flatTrace(0.9, 6, 20*time.Minute, time.Second)
	res := MustNew(baseConfig(r, w, controller(t, core.NewHEBD(pat.MustNew(pat.DefaultConfig())), 500))).Run()

	if res.DowntimeServerSeconds != 0 {
		t.Errorf("downtime %g with ample budget", res.DowntimeServerSeconds)
	}
	if res.ServedTotal() != 0 {
		t.Errorf("storage served %v with ample budget", res.ServedTotal())
	}
	if res.MismatchSteps != 0 {
		t.Errorf("mismatch steps %d, want 0", res.MismatchSteps)
	}
}

func TestMismatchServedByStorage(t *testing.T) {
	// Budget 260 W, constant demand 6×70 = 420 W: storage must carry
	// 160 W continuously until it runs dry.
	r := newRig(t, 260)
	w := flatTrace(1.0, 6, 10*time.Minute, time.Second)
	res := MustNew(baseConfig(r, w, controller(t, core.NewSCFirst(), 260))).Run()

	if res.ServedTotal() <= 0 {
		t.Fatal("storage served nothing during a sustained mismatch")
	}
	if res.MismatchSteps == 0 {
		t.Fatal("no mismatch steps recorded")
	}
	// SCFirst must have drawn on the SC pool before batteries.
	if res.ServedFromSupercap <= 0 {
		t.Error("SCFirst never used the SC pool")
	}
}

func TestBaOnlyNeverTouchesSupercap(t *testing.T) {
	r := newRig(t, 260)
	w := squareTrace(0.2, 1.0, 4*time.Minute, 6, 30*time.Minute, time.Second)
	cfg := baseConfig(r, w, controller(t, core.NewBaOnly(), 260))
	cfg.Supercap = nil // BaOnly systems have no SC pool at all
	cfg.ChargePriority = ChargeBatteryOnly
	res := MustNew(cfg).Run()

	if res.ServedFromSupercap != 0 {
		t.Errorf("BaOnly served %v from SC", res.ServedFromSupercap)
	}
	if res.ServedFromBattery <= 0 {
		t.Error("BaOnly never used its battery")
	}
}

func TestTinyBuffersForceDowntime(t *testing.T) {
	r := newRig(t, 200) // harsh: 220 W short at full load
	// Shrink both pools to almost nothing.
	small := esd.DefaultBatteryConfig()
	small.CapacityAh = 0.3
	r.battery = esd.MustNewPool("battery", esd.MustNewBattery(small))
	tiny := esd.DefaultSupercapConfig()
	tiny.Capacitance = 5
	r.supercap = esd.MustNewPool("supercap", esd.MustNewSupercap(tiny))

	w := flatTrace(1.0, 6, 30*time.Minute, time.Second)
	res := MustNew(baseConfig(r, w, controller(t, core.NewSCFirst(), 200))).Run()

	if res.DowntimeServerSeconds <= 0 {
		t.Error("no downtime despite starved buffers")
	}
	if res.ShedEvents == 0 {
		t.Error("no shed events recorded")
	}
	if res.DowntimeFraction <= 0 || res.DowntimeFraction > 1 {
		t.Errorf("downtime fraction %g out of range", res.DowntimeFraction)
	}
}

func TestSurplusChargesBuffers(t *testing.T) {
	r := newRig(t, 400)
	// Pre-drain both pools so there is room to charge.
	for r.battery.SoC() > 0.5 {
		r.battery.Discharge(80, 10*time.Second)
	}
	for r.supercap.SoC() > 0.5 {
		r.supercap.Discharge(200, 10*time.Second)
	}
	w := flatTrace(0.1, 6, 20*time.Minute, time.Second) // demand ≈ 204 W < 400
	res := MustNew(baseConfig(r, w, controller(t, core.NewSCFirst(), 400))).Run()

	if res.ChargedIntoBuffers <= 0 {
		t.Fatal("surplus never charged the buffers")
	}
	if r.supercap.SoC() < 0.99 {
		t.Errorf("SC pool not refilled: SoC %g", r.supercap.SoC())
	}
	if r.battery.SoC() <= 0.5 {
		t.Errorf("battery not charged: SoC %g", r.battery.SoC())
	}
}

func TestEnergyEfficiencyBounds(t *testing.T) {
	r := newRig(t, 260)
	w := squareTrace(0.2, 1.0, 4*time.Minute, 6, time.Hour, time.Second)
	res := MustNew(baseConfig(r, w, controller(t, core.NewSCFirst(), 260))).Run()
	if res.EnergyEfficiency <= 0 || res.EnergyEfficiency > 1 {
		t.Errorf("EE %g out of (0,1]", res.EnergyEfficiency)
	}
	// Delivered cannot exceed what entered plus what was stored.
	maxOut := float64(res.ChargedIntoBuffers) + float64(r.battery.Capacity()+r.supercap.Capacity())
	if float64(res.ServedTotal()) > maxOut {
		t.Errorf("delivered %v exceeds charged+capacity %g", res.ServedTotal(), maxOut)
	}
}

func TestSchedServersRestartWhenLoadDrops(t *testing.T) {
	r := newRig(t, 200)
	small := esd.DefaultBatteryConfig()
	small.CapacityAh = 0.3
	r.battery = esd.MustNewPool("battery", esd.MustNewBattery(small))
	tiny := esd.DefaultSupercapConfig()
	tiny.Capacitance = 5
	r.supercap = esd.MustNewPool("supercap", esd.MustNewSupercap(tiny))

	// 10 min of overload, then 20 min of light load.
	w := trace.MustNew("burst-then-idle", time.Second, 6, 1800)
	for i := range w.Samples {
		u := 0.05
		if i < 600 {
			u = 1.0
		}
		for j := range w.Samples[i] {
			w.Samples[i][j] = u
		}
	}
	cfg := baseConfig(r, w, controller(t, core.NewSCFirst(), 200))
	eng := MustNew(cfg)
	res := eng.Run()

	if res.ShedEvents == 0 {
		t.Fatal("test needs shed events to exercise restart")
	}
	if len(eng.Fabric().OfflineServers()) != 0 {
		t.Errorf("servers still offline after load dropped: %v", eng.Fabric().OfflineServers())
	}
	if res.PowerCycles == 0 {
		t.Error("no restarts counted")
	}
	if res.BootWaste <= 0 {
		t.Error("no boot waste charged for restarts")
	}
}

func TestRenewableREUAccounting(t *testing.T) {
	r := newRig(t, 300) // feed replaced below
	// Solar-like feed: strong for 10 min, zero for 10 min.
	samples := make([]units.Power, 1200)
	for i := range samples {
		if i < 600 {
			samples[i] = 500
		}
	}
	solar := power.MustNewTraceFeed("solar", time.Second, samples)

	w := flatTrace(0.5, 6, 20*time.Minute, time.Second) // demand 300 W
	c := controller(t, core.NewSCFirst(), 300)
	cfg := Config{
		Step: time.Second, Slot: 2 * time.Minute,
		Servers: r.servers, Workload: w,
		Battery: r.battery, Supercap: r.supercap,
		Feed: solar, Renewable: true,
		Controller: c,
	}
	// Pre-drain so the surplus has somewhere to go.
	for r.battery.SoC() > 0.3 {
		r.battery.Discharge(80, 10*time.Second)
	}
	for r.supercap.SoC() > 0.3 {
		r.supercap.Discharge(200, 10*time.Second)
	}
	res := MustNew(cfg).Run()

	if res.RenewableGenerated <= 0 {
		t.Fatal("no renewable generation recorded")
	}
	if res.REU <= 0 || res.REU > 1 {
		t.Errorf("REU %g out of (0,1]", res.REU)
	}
	// Conservation: used + stored + spilled = generated.
	sum := float64(res.RenewableUsed + res.RenewableStored + res.RenewableSpilled)
	gen := float64(res.RenewableGenerated)
	if math.Abs(sum-gen) > 0.02*gen+1 {
		t.Errorf("renewable ledger broken: used+stored+spilled %g vs generated %g", sum, gen)
	}
}

func TestHybridAbsorbsMoreRenewableThanBatteryOnly(t *testing.T) {
	// The Figure 12(d) mechanism: the SC absorbs surplus beyond the
	// battery's charge-current cap.
	run := func(withSC bool) Result {
		r := newRig(t, 300)
		samples := make([]units.Power, 1200)
		for i := range samples {
			if i%200 < 100 {
				samples[i] = 800 // deep valley bursts
			} else {
				samples[i] = 150
			}
		}
		solar := power.MustNewTraceFeed("solar", time.Second, samples)
		w := flatTrace(0.3, 6, 20*time.Minute, time.Second)
		cfg := Config{
			Step: time.Second, Slot: 2 * time.Minute,
			Servers: r.servers, Workload: w,
			Battery: r.battery,
			Feed:    solar, Renewable: true,
		}
		if withSC {
			cfg.Supercap = r.supercap
			cfg.Controller = controller(t, core.NewSCFirst(), 300)
		} else {
			cfg.Controller = controller(t, core.NewBaOnly(), 300)
			cfg.ChargePriority = ChargeBatteryOnly
		}
		// Start pools drained.
		for r.battery.SoC() > 0.2 {
			r.battery.Discharge(80, 10*time.Second)
		}
		for r.supercap.SoC() > 0.2 {
			r.supercap.Discharge(200, 10*time.Second)
		}
		return MustNew(cfg).Run()
	}
	hybrid := run(true)
	battOnly := run(false)
	if hybrid.REU <= battOnly.REU {
		t.Errorf("hybrid REU %.3f <= battery-only %.3f", hybrid.REU, battOnly.REU)
	}
}

func TestDemandSeriesRecorded(t *testing.T) {
	r := newRig(t, 500)
	w := flatTrace(0.5, 6, 5*time.Minute, time.Second)
	cfg := baseConfig(r, w, controller(t, core.NewSCFirst(), 500))
	var series []float64
	cfg.Observer = func(s StepInfo) { series = append(series, float64(s.Demand)) }
	MustNew(cfg).Run()
	if len(series) != 300 {
		t.Fatalf("demand series length %d, want 300", len(series))
	}
	want := 6 * 50.0 // util 0.5 → 50 W each
	if math.Abs(series[10]-want) > 1e-6 {
		t.Errorf("demand sample %g, want %g", series[10], want)
	}
}

func TestMPPU(t *testing.T) {
	demand := []float64{100, 200, 300, 400, 400}
	if got := MPPU(demand, 400); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("MPPU(400) = %g, want 0.4", got)
	}
	if got := MPPU(demand, 1000); got != 0 {
		t.Errorf("MPPU(1000) = %g, want 0", got)
	}
	if got := MPPU(demand, 50); got != 1 {
		t.Errorf("MPPU(50) = %g, want 1", got)
	}
	if got := MPPU(nil, 100); got != 0 {
		t.Errorf("MPPU(empty) = %g", got)
	}
	if got := MPPU(demand, 0); got != 0 {
		t.Errorf("MPPU(budget 0) = %g", got)
	}
}

func TestSlotAccounting(t *testing.T) {
	r := newRig(t, 260)
	w := flatTrace(0.8, 6, 10*time.Minute, time.Second)
	cfg := baseConfig(r, w, controller(t, core.NewSCFirst(), 260))
	cfg.Slot = 2 * time.Minute
	res := MustNew(cfg).Run()
	if res.SlotCount != 5 {
		t.Errorf("slot count %d, want 5 for 10min/2min", res.SlotCount)
	}
	if res.Steps != 600 {
		t.Errorf("steps %d, want 600", res.Steps)
	}
}

func TestChargePriorityString(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range []ChargePriority{ChargeSupercapFirst, ChargeBatteryFirst, ChargeBatteryOnly, ChargePriority(9)} {
		if seen[p.String()] {
			t.Errorf("duplicate string %q", p.String())
		}
		seen[p.String()] = true
	}
}
