package heb

import (
	"strings"
	"testing"
	"time"
)

func TestMultiSeedComparison(t *testing.T) {
	p := DefaultPrototype()
	results, err := MultiSeedComparison(p, MultiSeedOptions{
		Seeds:    3,
		Duration: 6 * time.Hour,
		Workload: "PR",
		Schemes:  []SchemeID{BaOnly, HEBD},
	})
	if err != nil {
		t.Fatalf("MultiSeedComparison: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("%d results, want 2", len(results))
	}
	for _, r := range results {
		if r.EE.N != 3 {
			t.Errorf("%v: %d EE samples, want 3", r.Scheme, r.EE.N)
		}
		if r.EE.Mean <= 0 || r.EE.Mean > 1 {
			t.Errorf("%v: EE mean %g out of range", r.Scheme, r.EE.Mean)
		}
		if r.EE.Min > r.EE.Mean || r.EE.Max < r.EE.Mean {
			t.Errorf("%v: mean outside [min,max]", r.Scheme)
		}
	}
	// The headline gap should be significant across seeds: HEB-D's EE
	// mean above BaOnly's with non-overlapping 95% intervals.
	byScheme := map[SchemeID]MultiSeedResult{}
	for _, r := range results {
		byScheme[r.Scheme] = r
	}
	if ba, hebd := byScheme[BaOnly].EE, byScheme[HEBD].EE; hebd.Mean <= ba.Mean || hebd.Overlaps(ba) {
		t.Errorf("HEB-D EE gain not significant across seeds: %+v", results)
	}
	var sb strings.Builder
	if err := WriteMultiSeed(&sb, results); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "HEB-D") {
		t.Error("report missing HEB-D")
	}
}

func TestMultiSeedValidation(t *testing.T) {
	p := DefaultPrototype()
	if _, err := MultiSeedComparison(p, MultiSeedOptions{Seeds: 1}); err == nil {
		t.Error("accepted a single seed")
	}
	if _, err := MultiSeedComparison(p, MultiSeedOptions{Seeds: 2, Workload: "NOPE"}); err == nil {
		t.Error("accepted unknown workload")
	}
}

func TestScaleOutStudy(t *testing.T) {
	p := DefaultPrototype()
	pts, err := ScaleOutStudy(p, []int{1, 4}, 2*time.Hour)
	if err != nil {
		t.Fatalf("ScaleOutStudy: %v", err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points, want 2", len(pts))
	}
	if pts[0].Servers != 6 || pts[1].Servers != 24 {
		t.Errorf("server counts %d/%d, want 6/24", pts[0].Servers, pts[1].Servers)
	}
	// The architecture scales: per-server outcomes stay in the same
	// band as the cluster grows.
	if d := pts[1].EnergyEfficiency - pts[0].EnergyEfficiency; d < -0.05 || d > 0.05 {
		t.Errorf("EE shifted %.3f across scale-out", d)
	}
	if pts[1].DowntimeFraction > pts[0].DowntimeFraction+0.01 {
		t.Errorf("downtime fraction grew with scale: %g -> %g",
			pts[0].DowntimeFraction, pts[1].DowntimeFraction)
	}
	var sb strings.Builder
	if err := WriteScaleOut(&sb, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "24") {
		t.Error("report missing the scaled row")
	}
	if _, err := ScaleOutStudy(p, []int{0}, time.Hour); err == nil {
		t.Error("accepted zero scale factor")
	}
	if _, err := ScaleOutStudy(p, nil, 0); err == nil {
		t.Error("accepted zero duration")
	}
}
