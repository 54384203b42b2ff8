package sim

import (
	"bytes"
	"math"
	"testing"
	"time"

	"heb/internal/core"
	"heb/internal/esd"
	"heb/internal/forecast"
	"heb/internal/power"
	"heb/internal/trace"
)

// perTickCopy resamples tr to a 1 s step by repeating each row, giving
// every 1 s row its own backing array, so no tick of a run over the copy
// ever holds a row.
func perTickCopy(tr *trace.Trace) *trace.Trace {
	k := int(tr.Step / time.Second)
	out := &trace.Trace{Name: tr.Name, Step: time.Second, Samples: make([][]float64, k*tr.Steps())}
	for i := range out.Samples {
		out.Samples[i] = append([]float64(nil), tr.Samples[i/k]...)
	}
	return out
}

// scaleX16Path is the rig scaled out sixteen times: 96 servers, budget
// and pools, with most mismatch ticks on a held row.
func scaleX16Path() enginePath {
	return enginePath{
		name: "scale_x16", servers: 96, budget: 16 * 190, scheme: hebD,
		tweak: func(cfg *Config, r *rig, _ **Engine) {
			bats, scs := make([]esd.Device, 16), make([]esd.Device, 16)
			for i := range bats {
				bats[i] = esd.MustNewBattery(esd.DefaultBatteryConfig())
				scs[i] = esd.MustNewSupercap(esd.DefaultSupercapConfig())
			}
			r.battery, r.supercap = esd.MustNewPool("battery", bats...), esd.MustNewPool("supercap", scs...)
			cfg.Battery, cfg.Supercap = r.battery, r.supercap
			cfg.Controller = core.MustNewController(core.Config{
				SmallPeakWatts: 16 * 40, Budget: 16 * 190, NumServers: 96,
				PeakPredictor: forecast.NewNaive(), ValleyPredictor: forecast.NewNaive(),
			}, hebD())
		},
	}
}

// TestHeldRowsMatchPerTickRows runs every engine path twice: on a 10 s
// trace, whose rows the engine holds for ten ticks each and so reuses its
// demand snapshot, LRU order, overload set and sorted overload order, and
// on a 1 s copy that reads a fresh row every tick. The Result, the final
// fabric state (LRU stamps included) and the event digest must be
// byte-equal.
func TestHeldRowsMatchPerTickRows(t *testing.T) {
	paths := enginePaths()
	paths = append(paths,
		// A DVFS run whose pools are small enough that applyDecision's
		// largest-first order decides which servers land on which pool.
		enginePath{
			name: "dvfs_order_sensitive", budget: 200, scheme: core.NewBaFirst,
			tweak: func(cfg *Config, r *rig, _ **Engine) {
				cfg.DVFSCapping = true
				weak := esd.DefaultBatteryConfig()
				weak.MaxDischargeC = 0.4
				r.battery = esd.MustNewPool("battery", esd.MustNewBattery(weak))
				cfg.Battery = r.battery
			},
		},
		scaleX16Path(),
		// Relays fail, are repaired and move in the middle of held rows:
		// three seconds into each minute the relays on a pool fail, and
		// they are repaired 37 s in, after three fresh rows have moved the
		// demand, so a server kept on utility may still be stuck on a pool.
		// At 45 s the first server on utility is moved onto the battery.
		enginePath{
			name: "relay_faults_mid_row", budget: 240, scheme: hebD,
			tweak: func(cfg *Config, _ *rig, eng **Engine) {
				var failed []int
				cfg.Observer = func(s StepInfo) {
					f := (*eng).Fabric()
					switch s.Now % time.Minute {
					case 3 * time.Second:
						for _, srv := range f.Servers() {
							if src := f.SourceOf(srv.ID()); src == power.SourceBattery || src == power.SourceSupercap {
								_ = f.FailRelay(srv.ID())
								failed = append(failed, srv.ID())
							}
						}
					case 37 * time.Second:
						for _, id := range failed {
							f.RepairRelay(id)
						}
						failed = failed[:0]
					case 45 * time.Second:
						for _, srv := range f.Servers() {
							if f.SourceOf(srv.ID()) == power.SourceUtility {
								_ = f.Assign(srv.ID(), power.SourceBattery)
								break
							}
						}
					}
				}
			},
		},
	)
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			held := func(servers int) *trace.Trace { return burstyTrace(servers, time.Hour, 10*time.Second) }
			perTick := func(servers int) *trace.Trace { return perTickCopy(held(servers)) }
			eh, gotHeld := runEnginePath(t, p, held)
			ep, gotPerTick := runEnginePath(t, p, perTick)
			// Both runs must take the path under test: the held run reuses
			// most snapshots, the per-tick run none.
			if steps := uint64(eh.steps); eh.snap > steps/2 || ep.snap < steps {
				t.Fatalf("%d steps: %d snapshots on the 10 s trace, %d on the 1 s copy", steps, eh.snap, ep.snap)
			}
			if p.servers > 0 && eh.mismatchSteps < eh.steps/4 {
				t.Fatalf("%d steps: only %d mismatch ticks, too few to exercise the overload reuse", eh.steps, eh.mismatchSteps)
			}
			if !bytes.Equal(gotHeld, gotPerTick) {
				gl, wl := bytes.Split(gotHeld, []byte("\n")), bytes.Split(gotPerTick, []byte("\n"))
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if !bytes.Equal(gl[i], wl[i]) {
						t.Fatalf("held rows differ from per-tick rows at line %d:\n held %s\n tick %s", i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("held rows differ from per-tick rows in length: %d lines, want %d", len(gl), len(wl))
			}
		})
	}
}

// TestKeptSplitMatchesFreshSplit checks the per-source split the engine
// keeps across held ticks against a fresh Fabric.DemandPerSource, bit for
// bit, after every tick of a 10 s trace, whose held rows let the engine
// reuse it. A mismatch tick reads the split last, after its relays moved,
// and a tick whose key still matches the engine's state would hand the
// kept split to the next reader, so both are checked. It runs the DVFS,
// stuck-relay, shed/restart and non-dense-id paths and the ×16 scale
// path; most mismatch ticks must hold their snapshot, so that the reuse
// is exercised.
func TestKeptSplitMatchesFreshSplit(t *testing.T) {
	held := func(servers int) *trace.Trace { return burstyTrace(servers, time.Hour, 10*time.Second) }
	for _, p := range append(enginePaths(), scaleX16Path()) {
		t.Run(p.name, func(t *testing.T) {
			heldMismatch, lastSnap := 0, uint64(0)
			tweak := p.tweak
			p.tweak = func(cfg *Config, r *rig, eng **Engine) {
				if tweak != nil {
					tweak(cfg, r, eng)
				}
				// Check before the path's own observer, which may fail
				// relays.
				next := cfg.Observer
				cfg.Observer = func(s StepInfo) {
					e := *eng
					if s.Mismatch || (sourceKey{snap: e.snap, switches: e.fabric.SwitchCounts()}) == e.sourceKey {
						fresh := e.fabric.DemandPerSource(e.demandByIdx)
						for src, want := range fresh {
							if got := e.perSource[src]; math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
								t.Fatalf("%v: kept %v split %g W, fresh %g W", s.Now, power.Source(src), float64(got), float64(want))
							}
						}
					}
					if s.Mismatch && e.snap == lastSnap {
						heldMismatch++
					}
					lastSnap = e.snap
					if next != nil {
						next(s)
					}
				}
			}
			e, _ := runEnginePath(t, p, held)
			if heldMismatch < e.mismatchSteps/2 {
				t.Fatalf("%d steps: only %d of %d mismatch ticks held their snapshot", e.steps, heldMismatch, e.mismatchSteps)
			}
		})
	}
}
