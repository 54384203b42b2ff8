package sim

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"heb/internal/core"
	"heb/internal/esd"
	"heb/internal/obs"
	"heb/internal/obs/alerts"
	"heb/internal/units"
)

func TestProbeDecimationAndDeviceNames(t *testing.T) {
	r := newRig(t, 260)
	w := flatTrace(0.5, 6, 5*time.Minute, time.Second)
	cfg := baseConfig(r, w, controller(t, core.NewSCFirst(), 260))
	rec := obs.NewProbeRecorder(0)
	cfg.Invariants = NewChecker(nil, nil, rec, 60)
	MustNew(cfg).Run()

	devices := sampleDevices(rec.Samples())
	if len(devices) != 2 || devices[0] != "battery/0" || devices[1] != "supercap/0" {
		t.Fatalf("probed devices %v, want [battery/0 supercap/0]", devices)
	}
	// 300 steps sampled every 60: i = 0, 60, 120, 180, 240.
	for _, d := range devices {
		var samples []obs.ProbeSample
		for _, s := range rec.Samples() {
			if s.Device == d {
				samples = append(samples, s)
			}
		}
		if len(samples) != 5 {
			t.Fatalf("%s has %d samples, want 5", d, len(samples))
		}
		for i, s := range samples {
			if want := float64(i * 60); s.Seconds != want {
				t.Errorf("%s sample %d at t=%g, want %g", d, i, s.Seconds, want)
			}
			if s.SoC <= 0 || s.SoC > 1 {
				t.Errorf("%s sample %d SoC %g out of range", d, i, s.SoC)
			}
			if s.VoltageV <= 0 {
				t.Errorf("%s sample %d voltage %g", d, i, s.VoltageV)
			}
		}
	}
	if rec.Dropped() != 0 {
		t.Errorf("ring dropped %d samples on a short run", rec.Dropped())
	}
}

// sampleDevices lists the devices of samples in order of first appearance,
// which is the recorder's registration order.
func sampleDevices(samples []obs.ProbeSample) []string {
	var devices []string
	for _, s := range samples {
		if !slices.Contains(devices, s.Device) {
			devices = append(devices, s.Device)
		}
	}
	return devices
}

func TestProbesSkipNullBattery(t *testing.T) {
	r := newRig(t, 260)
	w := flatTrace(0.3, 6, 2*time.Minute, time.Second)
	cfg := baseConfig(r, w, controller(t, core.NewBaOnly(), 260))
	cfg.Battery = esd.MustNewPool("battery", esd.Null{})
	cfg.Supercap = nil
	rec := obs.NewProbeRecorder(0)
	cfg.Invariants = NewChecker(nil, nil, rec, 30)
	MustNew(cfg).Run()
	if n := len(sampleDevices(rec.Samples())); n != 0 {
		t.Errorf("Null battery produced %d probe devices", n)
	}
}

// TestCheckerDeviceTableOrdersEveryComponent runs one checked run over a
// ×3 uniform battery pool and a ×2 supercap pool with every component
// on. The probe samples (what probes.jsonl lists) name the devices in the
// audit report's order, each device gets one sample per probe step, and
// no ring regrows: the run allocates exactly as much as one probing every
// step.
func TestCheckerDeviceTableOrdersEveryComponent(t *testing.T) {
	// run returns the least allocation count of three identical runs, so
	// that an allocation elsewhere in the process does not count.
	run := func(every int) (report obs.AuditReport, rec *obs.ProbeRecorder, res Result, mallocs uint64) {
		for k := range 3 {
			r := newRig(t, 260)
			var err error
			if r.battery, err = esd.NewUniformPool("battery", 3, esd.MustNewBattery(esd.DefaultBatteryConfig())); err != nil {
				t.Fatal(err)
			}
			if r.supercap, err = esd.NewUniformPool("supercap", 2, esd.MustNewSupercap(esd.DefaultSupercapConfig())); err != nil {
				t.Fatal(err)
			}
			w := squareTrace(0.2, 1.0, 4*time.Minute, 6, 5*time.Minute, time.Second)
			cfg := baseConfig(r, w, controller(t, core.NewSCFirst(), 260))
			auditor := obs.NewAuditor(obs.AuditModeReport)
			rec = obs.NewProbeRecorder(0)
			cfg.Invariants = NewChecker(auditor, alerts.NewEngine(alerts.ModeReport, alerts.Rules{}), rec, every)
			e := MustNew(cfg)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res = e.Run()
			runtime.ReadMemStats(&after)
			if n := after.Mallocs - before.Mallocs; k == 0 || n < mallocs {
				mallocs = n
			}
			report = auditor.Report()
		}
		return report, rec, res, mallocs
	}
	const every = 7
	report, rec, res, mallocs := run(every)
	want := []string{"battery/0", "battery/1", "battery/2", "supercap/0", "supercap/1"}
	var audited []string
	for _, d := range report.Devices {
		audited = append(audited, d.Device)
	}
	if !slices.Equal(audited, want) {
		t.Fatalf("audit report devices %v, want %v", audited, want)
	}
	samples := rec.Samples()
	if got := sampleDevices(samples); !slices.Equal(got, audited) {
		t.Fatalf("probe devices %v, want the audit order %v", got, audited)
	}
	perDevice := (res.Steps + every - 1) / every
	for _, d := range want {
		n := 0
		for _, s := range samples {
			if s.Device == d {
				n++
			}
		}
		if n != perDevice {
			t.Errorf("%s has %d samples over %d steps, want %d", d, n, res.Steps, perDevice)
		}
	}
	if rec.Dropped() != 0 {
		t.Errorf("rings dropped %d samples", rec.Dropped())
	}
	// A ring that regrew while recording would allocate more often the
	// more samples it holds.
	if _, _, _, dense := run(1); dense != mallocs && !raceEnabled {
		t.Errorf("a run probing every step allocates %d times, one probing every %d steps %d", dense, every, mallocs)
	}
}

func TestAuditPassesOnRealRun(t *testing.T) {
	r := newRig(t, 260)
	w := squareTrace(0.2, 1.0, 4*time.Minute, 6, 30*time.Minute, time.Second)
	cfg := baseConfig(r, w, controller(t, core.NewSCFirst(), 260))
	auditor := obs.NewAuditor(obs.AuditModeReport)
	cfg.Invariants = NewChecker(auditor, nil, nil, 0)
	res := MustNew(cfg).Run()

	rep := auditor.Report()
	if !rep.Passed {
		t.Fatalf("audit failed on a healthy run: %s", rep.Summary())
	}
	if rep.RelDrift >= 1e-6 {
		t.Errorf("relative ledger drift %g, want < 1e-6", rep.RelDrift)
	}
	if rep.Steps != int64(res.Steps) {
		t.Errorf("audit saw %d steps, run had %d", rep.Steps, res.Steps)
	}
	if len(rep.Devices) != 2 {
		t.Errorf("device residuals %d, want 2", len(rep.Devices))
	}
	for _, d := range rep.Devices {
		if d.InWh == 0 && d.OutWh == 0 && d.DeltaWh == 0 {
			t.Errorf("device %s ledger empty: %+v", d.Device, d)
		}
	}
}

func TestAuditPassesUnderShedAndCharge(t *testing.T) {
	// The harsh shed/restore regime exercises the overload, takeover and
	// shed-spill paths of the ledger.
	r := newRig(t, 200)
	small := esd.DefaultBatteryConfig()
	small.CapacityAh = 0.3
	r.battery = esd.MustNewPool("battery", esd.MustNewBattery(small))
	tiny := esd.DefaultSupercapConfig()
	tiny.Capacitance = 5
	r.supercap = esd.MustNewPool("supercap", esd.MustNewSupercap(tiny))
	w := squareTrace(0.2, 1.0, 6*time.Minute, 6, 30*time.Minute, time.Second)
	cfg := baseConfig(r, w, controller(t, core.NewSCFirst(), 200))
	auditor := obs.NewAuditor(obs.AuditModeReport)
	cfg.Invariants = NewChecker(auditor, nil, nil, 0)
	res := MustNew(cfg).Run()
	if res.ShedEvents == 0 {
		t.Fatal("regime produced no sheds; test lost its point")
	}
	rep := auditor.Report()
	if !rep.Passed {
		t.Fatalf("audit failed under shed/restore: %s", rep.Summary())
	}
	if rep.RelDrift >= 1e-6 {
		t.Errorf("relative drift %g under shed/restore", rep.RelDrift)
	}
}

func TestAuditStrictAbortsRun(t *testing.T) {
	r := newRig(t, 260)
	w := flatTrace(0.5, 6, 10*time.Minute, time.Second)
	cfg := baseConfig(r, w, controller(t, core.NewSCFirst(), 260))
	auditor := obs.NewAuditor(obs.AuditModeStrict)
	// Pre-flag a violation: the engine must stop at the first step's
	// strict check instead of running out the clock.
	auditor.Flag(obs.AuditEvent{Kind: alerts.KindLedgerDrift, Detail: "injected"})
	cfg.Invariants = NewChecker(auditor, nil, nil, 0)
	res := MustNew(cfg).Run()
	if res.Steps >= 600 {
		t.Fatalf("strict audit did not abort: ran %d steps", res.Steps)
	}
	if !auditor.Violated() {
		t.Fatal("violation lost")
	}
}

// countingBattery counts ProbeSnapshot calls on a battery. It holds the
// battery in a named field behind an embedded Device: embedding
// *esd.Battery would promote the battery's partial probe, which the pool
// would call instead of the counted ProbeSnapshot.
type countingBattery struct {
	esd.Device
	bat   *esd.Battery
	snaps int
}

func newCountingBattery() *countingBattery {
	b := esd.MustNewBattery(esd.DefaultBatteryConfig())
	return &countingBattery{Device: b, bat: b}
}

func (c *countingBattery) ProbeSnapshot() esd.ProbeSnapshot {
	c.snaps++
	return c.bat.ProbeSnapshot()
}

// TestCheckerSnapshotsEachDeviceOncePerStep pins the merged pass: with
// the auditor or the rule engine on, each step snapshots every probed
// device exactly once, probes included; with probes alone, only probe
// steps do.
func TestCheckerSnapshotsEachDeviceOncePerStep(t *testing.T) {
	r := newRig(t, 260)
	w := flatTrace(0.5, 6, 5*time.Minute, time.Second)
	for _, tc := range []struct {
		name   string
		audit  *obs.Auditor
		alert  *alerts.Engine
		probes *obs.ProbeRecorder
		// extra is the snapshots beyond the per-step ones: enumerating
		// the target, and opening and closing its audit ledger.
		perStep bool
		extra   int
	}{
		{"audit+alerts", obs.NewAuditor(obs.AuditModeReport), alerts.NewEngine(alerts.ModeReport, alerts.Rules{}), nil, true, 3},
		{"all three", obs.NewAuditor(obs.AuditModeReport), alerts.NewEngine(alerts.ModeReport, alerts.Rules{}), obs.NewProbeRecorder(0), true, 3},
		{"probes only", nil, nil, obs.NewProbeRecorder(0), false, 1},
	} {
		cfg := baseConfig(r, w, controller(t, core.NewBaOnly(), 260))
		bat := newCountingBattery()
		cfg.Battery = esd.MustNewPool("battery", bat)
		cfg.Supercap = nil
		cfg.Invariants = NewChecker(tc.audit, tc.alert, tc.probes, 60)
		res := MustNew(cfg).Run()
		want := tc.extra + res.Steps/60 // 300 steps probed every 60
		if tc.perStep {
			want = tc.extra + res.Steps
		}
		if bat.snaps != want {
			t.Errorf("%s: %d ProbeSnapshot calls over %d steps, want %d", tc.name, bat.snaps, res.Steps, want)
		}
		if tc.probes != nil && len(tc.probes.Samples()) != res.Steps/60 {
			t.Errorf("%s: %d probe samples, want %d", tc.name, len(tc.probes.Samples()), res.Steps/60)
		}
		if err := cfg.Invariants.Err(); err != nil {
			t.Errorf("%s: report-mode checker returned a strict error: %v", tc.name, err)
		}
	}
}

// TestObserverSeesShedAndRestoreWindows drives the capping/shed path
// through the observer: during overload steps servers go Off with the
// mismatch flag set, and the low phase restores them.
func TestObserverSeesShedAndRestoreWindows(t *testing.T) {
	r := newRig(t, 200)
	small := esd.DefaultBatteryConfig()
	small.CapacityAh = 0.3
	r.battery = esd.MustNewPool("battery", esd.MustNewBattery(small))
	tiny := esd.DefaultSupercapConfig()
	tiny.Capacitance = 5
	r.supercap = esd.MustNewPool("supercap", esd.MustNewSupercap(tiny))
	w := squareTrace(0.2, 1.0, 6*time.Minute, 6, 30*time.Minute, time.Second)
	cfg := baseConfig(r, w, controller(t, core.NewSCFirst(), 200))
	var snaps []StepInfo
	cfg.Observer = func(s StepInfo) { snaps = append(snaps, s) }
	res := MustNew(cfg).Run()
	if res.ShedEvents == 0 || len(snaps) != res.Steps {
		t.Fatalf("sheds %d, snaps %d/%d", res.ShedEvents, len(snaps), res.Steps)
	}

	firstShed, restoredAfter := -1, false
	for i, s := range snaps {
		if total := s.OnUtility + s.OnBattery + s.OnSupercap + s.Off; total != 6 {
			t.Fatalf("snap %d relay counts sum to %d: %+v", i, total, s)
		}
		if s.Off > 0 && firstShed < 0 {
			firstShed = i
			if !s.Mismatch {
				t.Errorf("shed window at step %d without mismatch flag", i)
			}
		}
		if firstShed >= 0 && i > firstShed && s.Off == 0 {
			restoredAfter = true
		}
	}
	if firstShed < 0 {
		t.Fatal("observer never saw a shed window")
	}
	if !restoredAfter {
		t.Fatal("observer never saw servers restored after a shed")
	}
	// Off counts must reconcile with the result's downtime accounting.
	var offSteps float64
	for _, s := range snaps {
		offSteps += float64(s.Off)
	}
	if offSteps != res.DowntimeServerSeconds {
		t.Errorf("observer off-steps %g != downtime %g", offSteps, res.DowntimeServerSeconds)
	}
}

// TestObserverSeesDVFSCappingWindow checks the capping path through the
// observer: with the governor on, observed peak demand drops below the
// uncapped peak while relay accounting stays consistent.
func TestObserverSeesDVFSCappingWindow(t *testing.T) {
	peakDemand := func(capping bool) float64 {
		r := newRig(t, 260)
		w := squareTrace(0.2, 1.0, 10*time.Minute, 6, 30*time.Minute, time.Second)
		cfg := baseConfig(r, w, controller(t, core.NewBaOnly(), 260))
		cfg.Battery = esd.MustNewPool("battery", esd.Null{})
		cfg.Supercap = nil
		cfg.DVFSCapping = capping
		peak := 0.0
		cfg.Observer = func(s StepInfo) {
			if total := s.OnUtility + s.OnBattery + s.OnSupercap + s.Off; total != 6 {
				t.Fatalf("relay counts sum to %d: %+v", total, s)
			}
			if float64(s.Demand) > peak {
				peak = float64(s.Demand)
			}
		}
		res := MustNew(cfg).Run()
		if capping && res.DegradedServerSeconds <= 0 {
			t.Fatal("capping recorded no degraded time")
		}
		return peak
	}
	capped, uncapped := peakDemand(true), peakDemand(false)
	if capped >= uncapped {
		t.Errorf("capped peak %g W not below uncapped %g W", capped, uncapped)
	}
}

// TestCheckerSnapshotsMatchProbeMember holds every snapshot the checker
// reads to a full Pool.ProbeMemberInto read into a zeroed snapshot:
// whole on probe steps, on the bounds fields (the ones checkBounds and
// the SoC rules read) otherwise, including the members of a uniform pool
// that alias member 0's snapshot and the same pool once Members has made
// its members diverge.
func TestCheckerSnapshotsMatchProbeMember(t *testing.T) {
	r := newRig(t, 260)
	// Capacity fade makes every bounds field move with wear.
	fading := esd.DefaultBatteryConfig()
	fading.FadeAtEOL = 0.25
	bat, err := esd.NewUniformPool("battery", 3, esd.MustNewBattery(fading))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := esd.NewUniformPool("supercap", 2, esd.MustNewSupercap(esd.DefaultSupercapConfig()))
	if err != nil {
		t.Fatal(err)
	}
	r.battery, r.supercap = bat, sc
	cfg := baseConfig(r, flatTrace(0.5, 6, time.Minute, time.Second), controller(t, core.NewSCFirst(), 260))
	c := NewChecker(obs.NewAuditor(obs.AuditModeReport), nil, obs.NewProbeRecorder(0), 7)
	cfg.Invariants = c
	e := MustNew(cfg)
	c.start(e)
	if len(c.targets) != 5 {
		t.Fatalf("%d probe targets, want 5", len(c.targets))
	}
	bounds := func(s esd.ProbeSnapshot) [7]float64 {
		return [7]float64{s.SoC, s.VoltageV, s.VMinV, s.VMaxV, s.AvailAh, s.BoundAh, s.CapacityAh}
	}
	rng := rand.New(rand.NewSource(27))
	for step := 0; step < 300; step++ {
		if step == 150 {
			m := bat.Members()
			m[2].Discharge(m[2].MaxDischargePower()/2, time.Minute)
		}
		for _, p := range []*esd.Pool{bat, sc} {
			if rng.Intn(2) == 0 {
				p.Discharge(units.Power(rng.Float64()*1.2*float64(p.MaxDischargePower())), 10*time.Second)
			} else {
				p.Charge(units.Power(rng.Float64()*1.2*float64(p.MaxChargePower())), 10*time.Second)
			}
		}
		full := step%c.every == 0
		for j := range c.targets {
			tg := &c.targets[j]
			var want esd.ProbeSnapshot
			tg.pool.ProbeMemberInto(tg.idx, &want, true)
			got := *c.snapshot(j, full)
			if full && got != want {
				t.Fatalf("step %d %s: full snapshot %+v, member read %+v", step, tg.name, got, want)
			}
			if bounds(got) != bounds(want) {
				t.Fatalf("step %d %s: bounds snapshot %+v, member read %+v", step, tg.name, got, want)
			}
		}
	}
	if bat.Uniform() || !sc.Uniform() {
		t.Fatalf("uniform flags battery %v supercap %v, want false true", bat.Uniform(), sc.Uniform())
	}
}
