package alerts

import (
	"strings"
	"testing"
)

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
	}{{"off", ModeOff}, {"report", ModeReport}, {"strict", ModeStrict}} {
		got, err := ParseMode(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseMode(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Errorf("Mode(%v).String() = %q", got, got.String())
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("accepted unknown mode")
	}
}

func TestKindRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		parsed, err := ParseKind(k.String())
		if err != nil || parsed != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), parsed, err)
		}
	}
	if _, err := ParseKind("not_a_rule"); err == nil {
		t.Error("accepted unknown kind")
	}
}

func TestOffModeIsNil(t *testing.T) {
	a := NewEngine(ModeOff, Rules{})
	if a != nil {
		t.Fatal("ModeOff engine not nil")
	}
	// Every method must be nil-safe.
	a.ObserveSoC(0, 0, -1)
	a.ObserveMismatch(0, true, 1)
	a.ObserveLedger(0, 5, 1)
	a.ObserveRamp(0, 1e9)
	a.ObserveRelays(0, false, 5, 6)
	a.ObserveWear(0, "battery", 100)
	a.ObserveCheckpoint(0, "x", "y")
	if a.Violated() || a.Strict() {
		t.Error("nil engine reports activity")
	}
	if r := a.Report(); r.Health != HealthOK {
		t.Errorf("nil engine health %q", r.Health)
	}
	if a.TakeFired() != nil || a.Events() != nil {
		t.Error("nil engine produced events")
	}
}

func TestDebounceArmsAfterConsecutiveViolations(t *testing.T) {
	a := NewEngine(ModeReport, Rules{DebounceSteps: 3})
	b := a.AddDevice("b")
	// Two violations, a clean step, two more: never fires.
	a.ObserveSoC(0, b, 0.01)
	a.ObserveSoC(1, b, 0.01)
	a.ObserveSoC(2, b, 0.5)
	a.ObserveSoC(3, b, 0.01)
	a.ObserveSoC(4, b, 0.01)
	if got := a.Report().Events; got != 0 {
		t.Fatalf("fired %d alerts before debounce threshold", got)
	}
	// The third consecutive violation (t=3,4,5) fires exactly once;
	// further violations while firing stay silent.
	a.ObserveSoC(5, b, 0.01)
	a.ObserveSoC(6, b, 0.01)
	a.ObserveSoC(7, b, 0.01)
	r := a.Report()
	if r.Criticals != 1 || r.Counts["soc_floor"] != 1 {
		t.Fatalf("debounced fire wrong: %+v", r)
	}
	ev := a.Events()
	if len(ev) != 1 || ev[0].Seconds != 5 || ev[0].Kind != KindSoCFloor || ev[0].Device != "b" {
		t.Fatalf("event wrong: %+v", ev)
	}
}

// TestDevicesKeepSeparateRuleState checks each AddDevice slot runs its
// own automata: one device's breach neither arms nor fires another's.
func TestDevicesKeepSeparateRuleState(t *testing.T) {
	a := NewEngine(ModeReport, Rules{DebounceSteps: 2, DoDMax: -1})
	x, y := a.AddDevice("x"), a.AddDevice("y")
	a.ObserveSoC(0, x, 0.01)
	a.ObserveSoC(0, y, 0.5)
	a.ObserveSoC(1, x, 0.01)
	a.ObserveSoC(1, y, 0.01)
	ev := a.Events()
	if len(ev) != 1 || ev[0].Device != "x" || ev[0].Seconds != 1 {
		t.Fatalf("events %+v, want one soc_floor for x at t=1", ev)
	}
}

func TestHysteresisReArmsAfterCleanRun(t *testing.T) {
	a := NewEngine(ModeReport, Rules{DebounceSteps: 1, HysteresisSteps: 3})
	a.ObserveRamp(0, 1e6) // fires
	a.ObserveRamp(1, 1e6) // still firing: no second event
	if got := a.Report().Events; got != 1 {
		t.Fatalf("re-fired while firing: %d events", got)
	}
	// Two clean steps do not re-arm...
	a.ObserveRamp(2, 0)
	a.ObserveRamp(3, 0)
	a.ObserveRamp(4, 1e6)
	if got := a.Report().Events; got != 1 {
		t.Fatalf("re-armed before hysteresis: %d events", got)
	}
	// ...three do (the violation above reset the clean counter, so run
	// three more).
	a.ObserveRamp(5, 0)
	a.ObserveRamp(6, 0)
	a.ObserveRamp(7, 0)
	a.ObserveRamp(8, 1e6)
	if got := a.Report().Events; got != 2 {
		t.Fatalf("second excursion did not fire: %d events", got)
	}
}

func TestStructuralRulesSkipDebounce(t *testing.T) {
	a := NewEngine(ModeReport, Rules{DebounceSteps: 100})
	a.ObserveRelays(0, false, 5, 6)
	a.ObserveCheckpoint(0, "", "h1")
	a.ObserveCheckpoint(1, "bogus", "h2")
	r := a.Report()
	if r.Counts["relay_exclusivity"] != 1 || r.Counts["checkpoint_chain"] != 1 {
		t.Fatalf("structural rules debounced: %+v", r)
	}
	if r.Health != HealthCritical || !a.Violated() {
		t.Error("structural criticals did not turn health critical")
	}
}

func TestMismatchWindowTiming(t *testing.T) {
	a := NewEngine(ModeReport, Rules{MismatchWindowSeconds: 10, DebounceSteps: 1})
	for i := 0; i < 10; i++ {
		a.ObserveMismatch(float64(i), true, 1)
	}
	if a.Report().Events != 0 {
		t.Fatal("fired at exactly the bound")
	}
	a.ObserveMismatch(10, true, 1) // 11th second exceeds the 10 s bound
	r := a.Report()
	if r.Warnings != 1 || r.Counts["mismatch_window"] != 1 {
		t.Fatalf("window rule wrong: %+v", r)
	}
	// A new, shorter window does not fire again.
	a.ObserveMismatch(11, false, 1)
	a.ObserveMismatch(12, true, 1)
	if a.Report().Events != 1 {
		t.Error("short window re-fired")
	}
}

func TestLedgerDriftAccumulates(t *testing.T) {
	a := NewEngine(ModeReport, Rules{LedgerDriftRel: 1e-6, DebounceSteps: 1})
	for i := 0; i < 100; i++ {
		a.ObserveLedger(float64(i), 1.0, 1.0)
	}
	if a.Report().Events != 0 {
		t.Fatal("balanced ledger fired")
	}
	a.ObserveLedger(100, 1.0, 0.5) // leak half a watt-hour
	r := a.Report()
	if r.Criticals != 1 || r.Counts["ledger_drift"] != 1 {
		t.Fatalf("drift rule wrong: %+v", r)
	}
}

func TestDoDSwingTracksRunningMax(t *testing.T) {
	a := NewEngine(ModeReport, Rules{DoDMax: 0.5, DebounceSteps: 1, SoCFloor: -1, SoCCeiling: -1})
	b := a.AddDevice("b")
	a.ObserveSoC(0, b, 0.9)
	a.ObserveSoC(1, b, 0.5) // swing 0.4: fine
	if a.Report().Events != 0 {
		t.Fatal("fired within DoD budget")
	}
	a.ObserveSoC(2, b, 0.3) // swing 0.6 from the 0.9 top
	r := a.Report()
	if r.Counts["dod_excursion"] != 1 {
		t.Fatalf("DoD rule wrong: %+v", r)
	}
}

func TestNegativeThresholdDisablesRule(t *testing.T) {
	a := NewEngine(ModeReport, Rules{SoCFloor: -1, SoCCeiling: -1, DoDMax: -1, DebounceSteps: 1})
	b := a.AddDevice("b")
	for i := 0; i < 10; i++ {
		a.ObserveSoC(float64(i), b, -5)
	}
	if got := a.Report().Events; got != 0 {
		t.Fatalf("disabled rules fired %d alerts", got)
	}
}

func TestStrictViolatedAndHealth(t *testing.T) {
	a := NewEngine(ModeStrict, Rules{DebounceSteps: 1})
	b := a.AddDevice("b")
	if !a.Strict() || a.Violated() {
		t.Fatal("fresh strict engine state wrong")
	}
	a.ObserveRamp(0, 1e6) // warn severity
	if a.Violated() {
		t.Fatal("warning counted as violation")
	}
	if h := a.Report().Health; h != HealthWarn {
		t.Fatalf("health %q after warning", h)
	}
	a.ObserveSoC(1, b, -1) // critical
	if !a.Violated() {
		t.Fatal("critical not counted as violation")
	}
	if h := a.Report().Health; h != HealthCritical {
		t.Fatalf("health %q after critical", h)
	}
}

func TestTakeFiredDrains(t *testing.T) {
	a := NewEngine(ModeReport, Rules{DebounceSteps: 1})
	b := a.AddDevice("b")
	a.ObserveRamp(0, 1e6)
	if got := a.TakeFired(); len(got) != 1 {
		t.Fatalf("TakeFired returned %d", len(got))
	}
	if got := a.TakeFired(); got != nil {
		t.Fatalf("second TakeFired returned %d", len(got))
	}
	a.ObserveSoC(1, b, -1)
	if got := a.TakeFired(); len(got) != 1 || got[0].Kind != KindSoCFloor {
		t.Fatalf("drain after refire wrong: %+v", got)
	}
}

func TestEventCapOverflow(t *testing.T) {
	a := NewEngine(ModeReport, Rules{DebounceSteps: 1, HysteresisSteps: 1})
	for i := 0; i < 2*(EventCap+10); i += 2 {
		a.ObserveRamp(float64(i), 1e6)
		a.ObserveRamp(float64(i+1), 0) // hysteresis 1: re-arms immediately
	}
	r := a.Report()
	if len(a.Events()) != EventCap {
		t.Fatalf("stored %d events, cap %d", len(a.Events()), EventCap)
	}
	if r.Overflow == 0 || r.Events != EventCap+r.Overflow {
		t.Fatalf("overflow accounting wrong: %+v", r)
	}
}

func TestLogSortsByRun(t *testing.T) {
	l := NewLog()
	l.Add("z", Report{Health: HealthOK})
	l.Add("a", Report{Health: HealthCritical, Criticals: 1})
	l.Add("m", Report{Health: HealthWarn, Warnings: 1})
	rs := l.Reports()
	if len(rs) != 3 || rs[0].Run != "a" || rs[1].Run != "m" || rs[2].Run != "z" {
		t.Fatalf("reports unsorted: %+v", rs)
	}
	bad := l.Unhealthy()
	if len(bad) != 2 || bad[0].Run != "a" || bad[1].Run != "m" {
		t.Fatalf("unhealthy wrong: %+v", bad)
	}
}

func TestReportSummary(t *testing.T) {
	r := Report{Health: HealthCritical, Warnings: 2, Criticals: 1, Events: 3}
	if s := r.Summary(); !strings.Contains(s, "critical") || !strings.Contains(s, "2 warnings") {
		t.Errorf("summary %q", s)
	}
}
