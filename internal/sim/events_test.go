package sim

import (
	"testing"
	"time"

	"heb/internal/core"
	"heb/internal/obs"
	"heb/internal/pat"
)

// eventRig runs a mismatch-heavy configuration with an event log attached.
func runWithEvents(t *testing.T, tweak func(*Config)) (*obs.Log, Result) {
	t.Helper()
	r := newRig(t, 260)
	w := squareTrace(0.2, 1.0, 4*time.Minute, 6, 30*time.Minute, time.Second)
	cfg := baseConfig(r, w, controller(t, core.NewHEBD(pat.MustNew(pat.DefaultConfig())), 260))
	log := obs.NewLog(0)
	cfg.Events = log
	if tweak != nil {
		tweak(&cfg)
	}
	return log, MustNew(cfg).Run()
}

// byKind returns the logged events of kind k, in order.
func byKind(log *obs.Log, k obs.EventKind) []obs.Event {
	var out []obs.Event
	for _, e := range log.Events() {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

func TestRunEmitsStartAndEnd(t *testing.T) {
	log, _ := runWithEvents(t, nil)
	starts := byKind(log, obs.EventRunStart)
	if len(starts) != 1 || starts[0].Detail != "HEB-D" || starts[0].Server != -1 {
		t.Fatalf("run_start = %+v", starts)
	}
	ends := byKind(log, obs.EventRunEnd)
	if len(ends) != 1 || ends[0].Seconds != (30*time.Minute).Seconds() {
		t.Fatalf("run_end = %+v", ends)
	}
	events := log.Events()
	if events[0].Kind != obs.EventRunStart || events[len(events)-1].Kind != obs.EventRunEnd {
		t.Fatal("run_start/run_end do not bracket the event stream")
	}
}

func TestMismatchWindowsPairAndMatchCounter(t *testing.T) {
	log, res := runWithEvents(t, nil)
	begins := byKind(log, obs.EventMismatchBegin)
	ends := byKind(log, obs.EventMismatchEnd)
	if len(begins) == 0 {
		t.Fatal("square wave produced no mismatch windows")
	}
	if len(begins) != len(ends) {
		t.Fatalf("unbalanced mismatch windows: %d begins, %d ends", len(begins), len(ends))
	}
	for i := range begins {
		if ends[i].Seconds < begins[i].Seconds {
			t.Fatalf("window %d ends before it begins", i)
		}
		if begins[i].Watts <= 0 {
			t.Fatalf("mismatch_begin %d has no overdraw depth", i)
		}
	}
	// The ticks inside the windows are exactly the mismatch steps.
	ticks := 0
	for i := range begins {
		ticks += int(ends[i].Seconds - begins[i].Seconds)
	}
	if ticks != res.MismatchSteps {
		t.Errorf("window ticks %d != MismatchSteps %d", ticks, res.MismatchSteps)
	}
}

func TestRelayEventsMatchSwitchCounts(t *testing.T) {
	log, res := runWithEvents(t, nil)
	sheds := len(byKind(log, obs.EventShed))
	restores := len(byKind(log, obs.EventRestore))
	if sheds == 0 {
		// The rig may not shed under this budget; relay traffic is still
		// required.
		if len(byKind(log, obs.EventRelaySwitch)) == 0 {
			t.Fatal("no relay movement events at all")
		}
	}
	var total int64
	for _, n := range res.RelaySwitches {
		total += n
	}
	relayEvents := len(byKind(log, obs.EventRelaySwitch)) +
		len(byKind(log, obs.EventHandoff)) + sheds + restores
	if int64(relayEvents) != total {
		t.Errorf("relay events %d != Result.RelaySwitches total %d", relayEvents, total)
	}
	if res.RelaySwitches[3] != int64(sheds) { // index 3 = SourceOff
		t.Errorf("shed events %d != off-position switches %d", sheds, res.RelaySwitches[3])
	}
}

func TestChargeModeChangeEmitted(t *testing.T) {
	log, _ := runWithEvents(t, nil)
	changes := byKind(log, obs.EventChargeModeChange)
	if len(changes) == 0 {
		t.Fatal("no charge-mode-change events; the first plan must emit one")
	}
	if changes[0].From != "" {
		t.Errorf("first mode change has a From (%q); expected none", changes[0].From)
	}
	if changes[0].To == "" {
		t.Error("first mode change has no To")
	}
	for _, c := range changes[1:] {
		if c.From == c.To {
			t.Errorf("no-op mode change emitted: %+v", c)
		}
	}
}

func TestPATEventsPerSlotPlan(t *testing.T) {
	log, res := runWithEvents(t, nil)
	pats := len(byKind(log, obs.EventPATHit)) + len(byKind(log, obs.EventPATMiss))
	// HEB-D consults the table only on large-peak plans, so the count is
	// bounded by the slot count and must be nonzero for this overloaded rig.
	if pats == 0 {
		t.Fatal("no PAT hit/miss events for a table-backed scheme")
	}
	if pats > res.SlotCount {
		t.Errorf("%d PAT events exceed %d slots", pats, res.SlotCount)
	}
}

func TestNilSinkKeepsEngineSilent(t *testing.T) {
	r := newRig(t, 260)
	w := squareTrace(0.2, 1.0, 4*time.Minute, 6, 10*time.Minute, time.Second)
	cfg := baseConfig(r, w, controller(t, core.NewSCFirst(), 260))
	res := MustNew(cfg).Run() // Events nil: must not panic anywhere
	if res.Steps == 0 {
		t.Fatal("run did not execute")
	}
}

func TestObserverSeesRelaySwitchCounts(t *testing.T) {
	r := newRig(t, 260)
	w := flatTrace(1.0, 6, 10*time.Minute, time.Second)
	cfg := baseConfig(r, w, controller(t, core.NewSCFirst(), 260))
	var last StepInfo
	cfg.Observer = func(info StepInfo) { last = info }
	res := MustNew(cfg).Run()
	if last.RelaySwitches != res.RelaySwitches {
		t.Errorf("final StepInfo switches %v != Result %v", last.RelaySwitches, res.RelaySwitches)
	}
	var total int64
	for _, n := range res.RelaySwitches {
		total += n
	}
	if total == 0 {
		t.Error("sustained mismatch produced no relay switches")
	}
}

func TestDecisionTraceOneRecordPerSlot(t *testing.T) {
	r := newRig(t, 260)
	w := squareTrace(0.2, 1.0, 4*time.Minute, 6, 30*time.Minute, time.Second)
	dl := obs.NewDecisionLog()
	c := core.MustNewController(core.Config{
		SmallPeakWatts: 40,
		Budget:         260,
		NumServers:     6,
		Trace:          dl.Append,
	}, core.NewHEBD(pat.MustNew(pat.DefaultConfig())))
	res := MustNew(baseConfig(r, w, c)).Run()
	c.FlushTrace()
	if dl.Len() != res.SlotCount {
		t.Fatalf("decision records %d != SlotCount %d", dl.Len(), res.SlotCount)
	}
	for i, rec := range dl.Records() {
		if rec.Slot != i+1 {
			t.Fatalf("record %d has slot %d", i, rec.Slot)
		}
		if rec.Scheme != "HEB-D" {
			t.Fatalf("record %d scheme %q", i, rec.Scheme)
		}
		if rec.Mode == "" {
			t.Fatalf("record %d has no mode", i)
		}
		if !rec.Completed {
			t.Fatalf("record %d not completed; engine finishes every sampled slot", i)
		}
	}
	// Large-peak plans against a fresh PAT must have registered lookups.
	sawLookup := false
	for _, rec := range dl.Records() {
		if rec.PATLookups > 0 {
			sawLookup = true
			break
		}
	}
	if !sawLookup {
		t.Error("no decision record carries PAT lookups for HEB-D")
	}
}

func TestFlushTraceEmitsIncompleteSlot(t *testing.T) {
	dl := obs.NewDecisionLog()
	c := core.MustNewController(core.Config{
		SmallPeakWatts: 40,
		Budget:         260,
		NumServers:     6,
		Trace:          dl.Append,
	}, core.NewSCFirst())
	c.PlanSlot(100, 200, 300, 400)
	c.FlushTrace()
	if dl.Len() != 1 {
		t.Fatalf("records = %d, want 1", dl.Len())
	}
	if rec := dl.Records()[0]; rec.Completed {
		t.Error("unfinished slot marked completed")
	}
	c.FlushTrace() // idempotent
	if dl.Len() != 1 {
		t.Error("FlushTrace re-emitted the record")
	}
}

// TestEventDeterminism asserts two identical runs emit identical streams.
func TestEventDeterminism(t *testing.T) {
	run := func() []obs.Event {
		log, _ := runWithEvents(t, nil)
		return log.Events()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
