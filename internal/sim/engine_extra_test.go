package sim

import (
	"testing"
	"time"

	"heb/internal/core"
	"heb/internal/esd"
	"heb/internal/power"
	"heb/internal/trace"
)

func TestObserverReceivesEveryStep(t *testing.T) {
	r := newRig(t, 500)
	w := flatTrace(0.5, 6, 5*time.Minute, time.Second)
	var snaps []StepInfo
	cfg := baseConfig(r, w, controller(t, core.NewSCFirst(), 500))
	cfg.Observer = func(s StepInfo) { snaps = append(snaps, s) }
	MustNew(cfg).Run()
	if len(snaps) != 300 {
		t.Fatalf("observer saw %d steps, want 300", len(snaps))
	}
	last := snaps[len(snaps)-1]
	if last.Now != 299*time.Second {
		t.Errorf("last snapshot at %v", last.Now)
	}
	if last.OnUtility != 6 || last.Off != 0 {
		t.Errorf("snapshot relay counts wrong: %+v", last)
	}
	if last.Demand <= 0 || last.Supply != 500 {
		t.Errorf("snapshot power wrong: %+v", last)
	}
	if last.BatterySoC <= 0 || last.SupercapSoC <= 0 {
		t.Errorf("snapshot SoCs missing: %+v", last)
	}
}

func TestDVFSCappingReducesDemandAndRecords(t *testing.T) {
	r := newRig(t, 260)
	w := squareTrace(0.2, 1.0, 10*time.Minute, 6, 30*time.Minute, time.Second)
	cfg := baseConfig(r, w, controller(t, core.NewBaOnly(), 260))
	cfg.Battery = esd.MustNewPool("battery", esd.Null{})
	cfg.Supercap = nil
	cfg.DVFSCapping = true
	res := MustNew(cfg).Run()

	if res.DegradedServerSeconds <= 0 {
		t.Fatal("capping recorded no degraded time")
	}
	// At low frequency 6 servers peak at 6·(30+40·0.55) = 312 W > 260:
	// some shedding remains, but far less than the uncapped overload.
	if res.ServedTotal() != 0 {
		t.Errorf("null storage served %v", res.ServedTotal())
	}
	// The governor must restore full speed during the low phase.
	if res.DegradedServerSeconds >= float64(res.Steps)*6 {
		t.Error("servers never restored to full frequency")
	}
}

func TestChargeBatteryFirstPriority(t *testing.T) {
	r := newRig(t, 400)
	for r.battery.SoC() > 0.4 {
		r.battery.Discharge(80, 10*time.Second)
	}
	for r.supercap.SoC() > 0.4 {
		r.supercap.Discharge(200, 10*time.Second)
	}
	w := flatTrace(0.1, 6, 10*time.Minute, time.Second)
	cfg := baseConfig(r, w, controller(t, core.NewBaFirst(), 400))
	cfg.ChargePriority = ChargeBatteryFirst
	MustNew(cfg).Run()
	// Battery got priority: its energy-in must be nonzero; with a
	// surplus of ~200W both can charge, but the battery must have been
	// offered first (it charges at its cap).
	if in := r.battery.Stats().EnergyIn; in <= 0 {
		t.Error("battery-first charging never charged the battery")
	}
}

func TestClusterTopologyPaysConversionLoss(t *testing.T) {
	run := func(topo power.Topology) Result {
		r := newRig(t, 260)
		w := squareTrace(0.2, 1.0, 10*time.Minute, 6, 40*time.Minute, time.Second)
		cfg := baseConfig(r, w, controller(t, core.NewSCFirst(), 260))
		cfg.Topology = topo
		return MustNew(cfg).Run()
	}
	rack := run(power.TopologyRackLevel)
	cluster := run(power.TopologyClusterLevel)
	if rack.ConversionLoss != 0 {
		t.Errorf("rack-level conversion loss %v, want 0", rack.ConversionLoss)
	}
	if cluster.ConversionLoss <= 0 {
		t.Error("cluster-level shows no conversion loss")
	}
	if cluster.EnergyEfficiency >= rack.EnergyEfficiency {
		t.Errorf("cluster EE %.3f not below rack EE %.3f despite DC/AC loss",
			cluster.EnergyEfficiency, rack.EnergyEfficiency)
	}
}

func TestSlotPeaksRecorded(t *testing.T) {
	r := newRig(t, 500)
	w := flatTrace(0.5, 6, 10*time.Minute, time.Second)
	cfg := baseConfig(r, w, controller(t, core.NewSCFirst(), 500))
	cfg.Slot = 2 * time.Minute
	res := MustNew(cfg).Run()
	if len(res.SlotPeaks) != 5 || len(res.SlotValleys) != 5 {
		t.Fatalf("slot series %d/%d, want 5/5", len(res.SlotPeaks), len(res.SlotValleys))
	}
	for i := range res.SlotPeaks {
		if res.SlotPeaks[i] < res.SlotValleys[i] {
			t.Errorf("slot %d peak %g below valley %g", i, res.SlotPeaks[i], res.SlotValleys[i])
		}
	}
}

func TestNoDowntimeWithAmpleBudgetProperty(t *testing.T) {
	// DESIGN.md invariant: downtime = 0 whenever budget >= peak demand,
	// for any utilization pattern and any scheme mode.
	if testing.Short() {
		t.Skip("property test")
	}
	schemes := []core.Scheme{core.NewBaOnly(), core.NewSCFirst(), core.NewBaFirst()}
	for seed := int64(0); seed < 3; seed++ {
		for si, scheme := range schemes {
			r := newRig(t, 500) // 500 W > 6x70 W nameplate
			w := randomTrace(seed, 6, 20*time.Minute)
			cfg := baseConfig(r, w, controller(t, scheme, 500))
			res := MustNew(cfg).Run()
			if res.DowntimeServerSeconds != 0 {
				t.Errorf("seed %d scheme %d: downtime %g with ample budget",
					seed, si, res.DowntimeServerSeconds)
			}
			if res.MismatchSteps != 0 {
				t.Errorf("seed %d scheme %d: %d mismatch steps with ample budget",
					seed, si, res.MismatchSteps)
			}
		}
	}
}

// randomTrace builds a deterministic pseudo-random utilization trace.
func randomTrace(seed int64, servers int, duration time.Duration) *trace.Trace {
	tr := trace.MustNew("rand", time.Second, servers, int(duration/time.Second))
	state := uint64(seed)*2654435761 + 1
	next := func() float64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return float64(state%1000) / 1000
	}
	for i := range tr.Samples {
		for j := range tr.Samples[i] {
			tr.Samples[i][j] = next()
		}
	}
	return tr
}

func TestEnergyLedgerClosesProperty(t *testing.T) {
	// Source energy either reaches servers, charges buffers, or is lost
	// in converters/devices — nothing unaccounted beyond tolerance.
	r := newRig(t, 260)
	w := squareTrace(0.2, 1.0, 10*time.Minute, 6, time.Hour, time.Second)
	cfg := baseConfig(r, w, controller(t, core.NewSCFirst(), 260))
	eng := MustNew(cfg)
	res := eng.Run()

	served := float64(res.ServedTotal())
	charged := float64(res.ChargedIntoBuffers)
	lossesInside := float64(r.battery.Stats().Loss + r.supercap.Stats().Loss)
	stored := float64(r.battery.Stored() + r.supercap.Stored())
	// Test rigs start with full pools.
	initial := float64(r.battery.Capacity() + r.supercap.Capacity())

	// charged + initial = served(pre-conv) + losses + stored.
	lhs := charged + initial
	rhs := served + float64(res.ConversionLoss) + lossesInside + stored
	tol := 0.06*lhs + 10
	if diff := lhs - rhs; diff > tol || diff < -tol {
		t.Errorf("energy ledger open by %g J (lhs %g, rhs %g)", diff, lhs, rhs)
	}
}

// splitRig builds an engine whose slot decision is ModeSplit at ratio,
// with every server's demand snapshotted at the given utilizations. The
// rig's pools carry far more than six servers draw, so applyDecision's
// R_λ split never spills to the other pool.
func splitRig(t *testing.T, ratio float64, utils ...float64) *Engine {
	t.Helper()
	r := newRig(t, 260)
	for i, u := range utils {
		r.servers[i].SetUtilization(u)
	}
	e := MustNew(baseConfig(r, flatTrace(0.5, 6, time.Minute, time.Second), controller(t, core.NewSCFirst(), 260)))
	e.decision = core.Decision{Mode: core.ModeSplit, Ratio: ratio}
	e.fabric.SnapshotDemand(e.demandByIdx)
	return e
}

func TestApplyDecisionSplitRatio(t *testing.T) {
	e := splitRig(t, 0.5)
	e.applyDecision([]int{0, 1, 2, 3})
	f := e.Fabric()
	if got := f.Count(power.SourceSupercap); got != 2 {
		t.Errorf("SC count %d, want 2 at ratio 0.5", got)
	}
	if got := f.Count(power.SourceBattery); got != 2 {
		t.Errorf("battery count %d, want 2", got)
	}
	if got := f.Count(power.SourceUtility); got != 2 {
		t.Errorf("utility count %d, want 2 untouched", got)
	}
}

func TestApplyDecisionSplitExtremes(t *testing.T) {
	for _, tc := range []struct {
		ratio float64
		src   power.Source
	}{
		{1, power.SourceSupercap},
		{0, power.SourceBattery},
		{7, power.SourceSupercap}, // out-of-range ratios clamp
	} {
		e := splitRig(t, tc.ratio)
		e.applyDecision([]int{0, 1, 2, 3})
		if got := e.Fabric().Count(tc.src); got != 4 {
			t.Errorf("ratio %g: %v count %d, want 4", tc.ratio, tc.src, got)
		}
	}
}

func TestApplyDecisionSplitPutsBigLoadsOnSC(t *testing.T) {
	e := splitRig(t, 0.25, 0.1, 0.9, 0.2, 0.5) // server 1 is the hungriest
	e.applyDecision([]int{0, 1, 2, 3})         // one server on SC
	if src := e.Fabric().SourceAt(1); src != power.SourceSupercap {
		t.Errorf("hungriest server on %v, want supercap", src)
	}
}
