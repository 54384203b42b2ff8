package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"heb/internal/core"
	"heb/internal/obs"
	"heb/internal/obs/alerts"
	"heb/internal/power"
	"heb/internal/trace"
)

// hookedRun collects what a run with every engine hook on emits.
type hookedRun struct {
	events eventDigest
	ckpts  bytes.Buffer
}

// hookedConfig configures a DVFS-capped BaFirst run of w on r with the
// event sink, a checkpoint at every slot and the full invariant checker
// (auditor, alert rules, probes) on.
func hookedConfig(t *testing.T, r *rig, w *trace.Trace, rec *hookedRun) Config {
	t.Helper()
	cfg := baseConfig(r, w, controller(t, core.NewBaFirst(), 230))
	cfg.DVFSCapping = true
	cfg.Events = &rec.events
	cfg.Invariants = NewChecker(obs.NewAuditor(obs.AuditModeReport),
		alerts.NewEngine(alerts.ModeReport, alerts.Rules{}), obs.NewProbeRecorder(64), 60)
	cfg.CheckpointEvery = 1
	cfg.Checkpoints = func(_, _ int, _ time.Duration, state []byte) bool {
		rec.ckpts.Write(state)
		rec.ckpts.WriteByte('\n')
		return true
	}
	return cfg
}

// runOutcome runs e and returns its Result, final fabric state, event
// digest, final engine state and every checkpoint it emitted, as bytes.
func runOutcome(t *testing.T, e *Engine, rec *hookedRun) []byte {
	t.Helper()
	res := e.Run()
	final, err := e.checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(struct {
		Result Result
		Fabric power.FabricState
		Events int
		Digest string
		Final  EngineState
	}{res, e.Fabric().Checkpoint(), rec.events.n, fmt.Sprintf("%016x", rec.events.h), final}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, rec.ckpts.Bytes()...)
}

// TestResetMatchesNew checks that Reset leaves nothing of the previous
// run behind. An engine dirtied by a longer DVFS-capped run with every
// hook on, ended mid-peak with servers still capped, is reset onto a new
// server set and then onto the same set again; each run must match one
// from New on the Result, the final fabric state, the event digest, the
// final engine state and every checkpoint's bytes.
func TestResetMatchesNew(t *testing.T) {
	var dirty hookedRun
	e := MustNew(hookedConfig(t, newRig(t, 230),
		squareTrace(0.2, 1.0, 20*time.Minute, 6, 80*time.Minute, time.Second), &dirty))
	e.Run()
	if len(e.cappedFrom) == 0 {
		t.Fatal("the dirtying run ended with no server capped")
	}

	w := burstyTrace(6, time.Hour, time.Second)
	for _, same := range []bool{false, true} {
		r := newRig(t, 230)
		if same {
			r.servers = e.cfg.Servers
			for _, s := range r.servers {
				s.Reset()
			}
		}
		fabric := e.Fabric()
		var got, want hookedRun
		if err := e.Reset(hookedConfig(t, r, w, &got)); err != nil {
			t.Fatal(err)
		}
		if (e.Fabric() == fabric) != same {
			t.Errorf("same servers %v: fabric reused %v", same, e.Fabric() == fabric)
		}
		// State a run only reads back under a matching key (a held row, a
		// sort cache, a capped server) does not always show in a result.
		if e.heldRow != nil || e.snap != 0 || e.sortedSnap != 0 || len(e.cappedFrom) != 0 {
			t.Errorf("same servers %v: reset kept held row %v, snapshot %d/%d, %d capped servers",
				same, e.heldRow != nil, e.snap, e.sortedSnap, len(e.cappedFrom))
		}
		g := runOutcome(t, e, &got)
		n := runOutcome(t, MustNew(hookedConfig(t, newRig(t, 230), w, &want)), &want)
		if !bytes.Equal(g, n) {
			t.Errorf("same servers %v: reset engine differs from New", same)
		}
	}
}
