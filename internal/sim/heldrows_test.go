package sim

import (
	"bytes"
	"testing"
	"time"

	"heb/internal/core"
	"heb/internal/esd"
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

// TestHeldRowsMatchPerTickRows runs every engine path twice: on a 10 s
// trace, whose rows the engine holds for ten ticks each and so reuses its
// demand snapshot and sorted overload order, and on a 1 s copy that reads
// a fresh row every tick. The Result, the final fabric state (LRU stamps
// included) and the event digest must be byte-equal.
func TestHeldRowsMatchPerTickRows(t *testing.T) {
	paths := enginePaths()
	// A DVFS run whose pools are small enough that applyDecision's
	// largest-first order decides which servers land on which pool.
	paths = append(paths, enginePath{
		name: "dvfs_order_sensitive", budget: 200, scheme: core.NewBaFirst,
		tweak: func(cfg *Config, r *rig, _ **Engine) {
			cfg.DVFSCapping = true
			weak := esd.DefaultBatteryConfig()
			weak.MaxDischargeC = 0.4
			r.battery = esd.MustNewPool("battery", esd.MustNewBattery(weak))
			cfg.Battery = r.battery
		},
	})
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
