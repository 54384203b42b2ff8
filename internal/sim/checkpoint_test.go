package sim

import (
	"bytes"
	"math"
	"testing"
	"time"

	"heb/internal/core"
	"heb/internal/obs"
	"heb/internal/pat"
	"heb/internal/units"
)

// recordHash emits one checkpoint from a HEB-D engine whose PAT and
// demand series the caller fills, and returns the record's chain hash.
func recordHash(t *testing.T, fill func(e *Engine, table *pat.Table)) string {
	t.Helper()
	r := newRig(t, 260)
	table := pat.MustNew(pat.DefaultConfig())
	cfg := baseConfig(r, flatTrace(0.5, 6, 10*time.Minute, time.Second), controller(t, core.NewHEBD(table), 260))
	log := obs.NewCheckpointLog()
	cfg.CheckpointEvery = 1
	cfg.Checkpoints = func(slot, step int, now time.Duration, state []byte) bool {
		log.Append(slot, step, now.Seconds(), state)
		return true
	}
	e := MustNew(cfg)
	fill(e, table)
	e.emitCheckpoint(1, 120, 2*time.Minute)
	return log.Records()[0].Hash
}

// TestRecordHashSeesDigestedState: the demand series and the PAT travel
// as digests, yet one differing demand sample, one entry's ratio or one
// entry's hit count still changes the record hash, while the PAT's
// insertion order does not.
func TestRecordHashSeesDigestedState(t *testing.T) {
	ops := []struct {
		sc, ba float64
		pm     units.Power
		ratio  float64
	}{{0.1, 0.9, 40, 0.3}, {0.5, 0.5, 100, 0.5}, {0.9, 0.2, 300, 0.7}}
	fill := func(demand float64, ratio float64, hit int, reverse bool) func(e *Engine, table *pat.Table) {
		return func(e *Engine, table *pat.Table) {
			for _, d := range []float64{300, 310, demand, 290} {
				e.demandDigest.Fold(math.Float64bits(d))
			}
			for i := range ops {
				op := ops[i]
				if reverse {
					op = ops[len(ops)-1-i]
				}
				if op == ops[1] {
					op.ratio = ratio
				}
				table.Add(op.sc, op.ba, op.pm, op.ratio)
			}
			table.Lookup(ops[hit].sc, ops[hit].ba, ops[hit].pm)
		}
	}
	base := recordHash(t, fill(320, 0.5, 0, false))
	if got := recordHash(t, fill(320, 0.5, 0, true)); got != base {
		t.Error("PAT insertion order changed the record hash")
	}
	for name, f := range map[string]func(e *Engine, table *pat.Table){
		"demand sample": fill(320.5, 0.5, 0, false),
		"entry ratio":   fill(320, 0.51, 0, false),
		"entry hits":    fill(320, 0.5, 2, false),
	} {
		if recordHash(t, f) == base {
			t.Errorf("%s: record hash unchanged", name)
		}
	}
}

// TestRecordsIndependentOfCadence: a series digest folds each sample once,
// whenever the checkpoint comes, so a run checkpointed every slot and one
// checkpointed every third slot record the same state at the slots both
// hold.
func TestRecordsIndependentOfCadence(t *testing.T) {
	states := func(every int) map[int][]byte {
		r := newRig(t, 260)
		w := squareTrace(0.3, 0.95, 10*time.Minute, 6, time.Hour, time.Second)
		cfg := baseConfig(r, w, controller(t, core.NewHEBD(pat.MustNew(pat.DefaultConfig())), 260))
		out := make(map[int][]byte)
		cfg.CheckpointEvery = every
		cfg.Checkpoints = func(slot, _ int, _ time.Duration, state []byte) bool {
			out[slot] = bytes.Clone(state)
			return true
		}
		MustNew(cfg).Run()
		return out
	}
	every1, every3 := states(1), states(3)
	if len(every3) < 5 || len(every1) < 3*(len(every3)-1) {
		t.Fatalf("too few records: %d at cadence 1, %d at cadence 3", len(every1), len(every3))
	}
	for slot, s3 := range every3 {
		if s1, ok := every1[slot]; !ok || !bytes.Equal(s1, s3) {
			t.Errorf("slot %d: state differs between cadences 1 and 3", slot)
		}
	}
}
