package heb

import (
	"strings"
	"testing"

	"heb/internal/sim"
)

func TestWriteSchemeComparisonEmpty(t *testing.T) {
	var sb strings.Builder
	if err := WriteSchemeComparison(&sb, nil, "EE", nil); err == nil {
		t.Error("accepted empty results")
	}
}

func TestWriteImprovementSummaryNeedsBaseline(t *testing.T) {
	var sb strings.Builder
	results := []SchemeResult{{Scheme: HEBD, Results: map[string]sim.Result{}}}
	if err := WriteImprovementSummary(&sb, results); err == nil {
		t.Error("accepted results without a BaOnly baseline")
	}
}

func TestWriteFigure13WithoutReferenceRatio(t *testing.T) {
	// No 3:7 point: the table must still render, without normalization.
	pts := []RatioPoint{
		{SCRatio: 0.1, EnergyEfficiency: 0.8},
		{SCRatio: 0.5, EnergyEfficiency: 0.9},
	}
	var sb strings.Builder
	if err := WriteFigure13(&sb, pts); err != nil {
		t.Fatalf("WriteFigure13: %v", err)
	}
	if !strings.Contains(sb.String(), "1:9") {
		t.Errorf("missing ratio row: %s", sb.String())
	}
}

func TestImprovementFormatters(t *testing.T) {
	if got := pctGain(1.2, 1.0); got != "+20.0%" {
		t.Errorf("pctGain = %q", got)
	}
	if got := pctGain(1.0, 0); got != "-" {
		t.Errorf("pctGain base 0 = %q", got)
	}
	if got := pctCut(0.6, 1.0); got != "+40.0%" {
		t.Errorf("pctCut = %q", got)
	}
	if got := pctCut(1, 0); got != "-" {
		t.Errorf("pctCut base 0 = %q", got)
	}
	if got := times(4.7, 1.0); got != "4.7x" {
		t.Errorf("times = %q", got)
	}
	if got := times(1, 0); got != "-" {
		t.Errorf("times base 0 = %q", got)
	}
}

func TestWriteDeploymentsEmpty(t *testing.T) {
	var sb strings.Builder
	if err := WriteDeployments(&sb, nil); err == nil {
		t.Error("accepted empty deployments")
	}
}

func TestWriteMultiSeedEmpty(t *testing.T) {
	var sb strings.Builder
	if err := WriteMultiSeed(&sb, nil); err == nil {
		t.Error("accepted empty multi-seed results")
	}
}

func TestWriteScaleOutEmpty(t *testing.T) {
	var sb strings.Builder
	if err := WriteScaleOut(&sb, nil); err == nil {
		t.Error("accepted empty scale-out results")
	}
}
