package power

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"heb/internal/units"
)

func TestNewConverterValidation(t *testing.T) {
	if _, err := NewConverter("x", 0, 100); err == nil {
		t.Error("accepted zero efficiency")
	}
	if _, err := NewConverter("x", 1.1, 100); err == nil {
		t.Error("accepted efficiency > 1")
	}
	if _, err := NewConverter("x", 0.9, 0); err == nil {
		t.Error("accepted zero rating")
	}
}

func TestConverterEfficiencyCurve(t *testing.T) {
	c := MustNewConverter("dcac", 0.94, 400)
	atZero := c.Efficiency(0)
	atThird := c.Efficiency(150)
	atFull := c.Efficiency(400)
	if atZero >= atThird {
		t.Errorf("light-load penalty missing: eff(0)=%g >= eff(150)=%g", atZero, atThird)
	}
	if math.Abs(atThird-0.94) > 1e-9 || math.Abs(atFull-0.94) > 1e-9 {
		t.Errorf("plateau wrong: eff(150)=%g eff(400)=%g, want 0.94", atThird, atFull)
	}
}

func TestConverterInputOutputConsistency(t *testing.T) {
	c := MustNewConverter("dcac", 0.94, 400)
	out := units.Power(200)
	in := c.InputFor(out)
	if in <= out {
		t.Errorf("InputFor(%v) = %v, must exceed output", out, in)
	}
	back := c.OutputFor(in)
	if math.Abs(float64(back-out)) > 1 {
		t.Errorf("OutputFor(InputFor(%v)) = %v", out, back)
	}
}

func TestIdentityConverterIsLossless(t *testing.T) {
	c := TopologyRackLevel.DischargeConverter(400)
	f := func(p uint16) bool {
		pw := units.Power(p)
		return c.InputFor(pw) == pw && c.OutputFor(pw) == pw && c.Efficiency(pw) == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConverterInputAlwaysAtLeastOutput(t *testing.T) {
	c := MustNewConverter("dcac", 0.94, 400)
	f := func(p uint16) bool {
		pw := units.Power(p)
		return c.InputFor(pw) >= pw
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConverterLossMeter(t *testing.T) {
	c := MustNewConverter("dcac", 0.94, 400)
	c.AddLoss(100)
	c.AddLoss(-5) // ignored
	if got := c.Loss(); got != 100 {
		t.Errorf("Loss() = %v, want 100", got)
	}
}

func TestTopologyConverters(t *testing.T) {
	rated := units.Power(400)
	rack := TopologyRackLevel.DischargeConverter(rated)
	if rack.Efficiency(200) != 1 {
		t.Error("rack-level discharge path should be lossless")
	}
	cluster := TopologyClusterLevel.DischargeConverter(rated)
	if cluster.Efficiency(200) >= 1 {
		t.Error("cluster-level discharge path must pay DC/AC loss")
	}
	ups := TopologyCentralizedUPS.UtilityConverter(rated)
	if ups.Efficiency(200) >= 1 {
		t.Error("centralized UPS must double-convert utility power")
	}
	if direct := TopologyRackLevel.UtilityConverter(rated); direct.Efficiency(200) != 1 {
		t.Error("rack-level utility path should be direct")
	}
	// Double conversion loses more than single conversion.
	if ups.Efficiency(400) >= cluster.Efficiency(400) {
		t.Errorf("AC-DC-AC efficiency %g >= DC/AC %g",
			ups.Efficiency(400), cluster.Efficiency(400))
	}
}

func TestTopologyString(t *testing.T) {
	for _, tt := range []struct {
		tp   Topology
		want string
	}{
		{TopologyRackLevel, "rack-level"},
		{TopologyClusterLevel, "cluster-level"},
		{TopologyCentralizedUPS, "centralized-UPS"},
		{Topology(9), "Topology(9)"},
	} {
		if got := tt.tp.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestUtilityFeed(t *testing.T) {
	if _, err := NewUtilityFeed(0); err == nil {
		t.Error("accepted zero budget")
	}
	f := MustNewUtilityFeed(260)
	if f.Available(time.Hour) != 260 {
		t.Errorf("Available = %v, want 260", f.Available(time.Hour))
	}
	if f.Budget() != 260 || f.Name() != "utility" {
		t.Errorf("Budget, Name = %v, %q; want 260, utility", f.Budget(), f.Name())
	}
}

func TestTraceFeed(t *testing.T) {
	if _, err := NewTraceFeed("x", 0, []units.Power{1}); err == nil {
		t.Error("accepted zero step")
	}
	if _, err := NewTraceFeed("x", time.Second, nil); err == nil {
		t.Error("accepted empty trace")
	}
	if _, err := NewTraceFeed("x", time.Second, []units.Power{-1}); err == nil {
		t.Error("accepted negative sample")
	}
	f := MustNewTraceFeed("solar", time.Minute, []units.Power{0, 100, 200})
	if got := f.Available(0); got != 0 {
		t.Errorf("t=0: %v, want 0", got)
	}
	if got := f.Available(90 * time.Second); got != 100 {
		t.Errorf("t=90s: %v, want 100 (zero-order hold)", got)
	}
	if got := f.Available(3 * time.Minute); got != 0 {
		t.Errorf("t=3m: %v, want wrap to 0", got)
	}
	if got := f.Available(-time.Second); got != 0 {
		t.Errorf("t<0: %v, want first sample", got)
	}
	if f.Len() != 3 || f.Duration() != 3*time.Minute {
		t.Errorf("metadata wrong: len %d dur %v", f.Len(), f.Duration())
	}
}
