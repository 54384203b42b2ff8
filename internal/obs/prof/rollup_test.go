package prof

import (
	"os"
	"path/filepath"
	"testing"
)

// synthetic builds an in-memory Profile with the given stacks (leaf
// first) and values, one sample type.
func synthetic(sample ValueType, stacks [][]string, values []int64, labels []map[string]string) *Profile {
	p := &Profile{
		SampleTypes: []ValueType{sample},
		functions:   map[uint64]string{},
		locations:   map[uint64][]uint64{},
	}
	fid := map[string]uint64{}
	nextF, nextL := uint64(1), uint64(1)
	for i, stack := range stacks {
		var locs []uint64
		for _, fn := range stack {
			id, ok := fid[fn]
			if !ok {
				id = nextF
				nextF++
				fid[fn] = id
				p.functions[id] = fn
			}
			p.locations[nextL] = []uint64{id}
			locs = append(locs, nextL)
			nextL++
		}
		s := Sample{LocationIDs: locs, Values: []int64{values[i]}}
		if labels != nil {
			s.Labels = labels[i]
		}
		p.Samples = append(p.Samples, s)
	}
	return p
}

var allocSpace = ValueType{Type: "alloc_space", Unit: "bytes"}

func TestRollupFlatCum(t *testing.T) {
	p := synthetic(allocSpace,
		[][]string{
			{"leafA", "mid", "root"},
			{"leafB", "mid", "root"},
			{"leafA", "leafA", "root"}, // recursion: cum counts once
		},
		[]int64{60, 30, 10}, nil)
	r, err := NewRollup([]*Profile{p}, "alloc_space", "")
	if err != nil {
		t.Fatal(err)
	}
	if r.Total != 100 {
		t.Fatalf("total = %d", r.Total)
	}
	checks := []struct {
		name      string
		flat, cum int64
	}{
		{"leafA", 70, 70},
		{"leafB", 30, 30},
		{"mid", 0, 90},
		{"root", 0, 100},
	}
	for _, c := range checks {
		f := r.Frames[c.name]
		if f == nil || f.Flat != c.flat || f.Cum != c.cum {
			t.Errorf("%s: got %+v, want flat=%d cum=%d", c.name, f, c.flat, c.cum)
		}
	}
	top := r.Top(2)
	if len(top) != 2 || top[0].Name != "leafA" || top[1].Name != "leafB" {
		t.Fatalf("top = %+v", top)
	}
	if pct := r.FlatPct(top[0]); pct != 70 {
		t.Fatalf("leafA pct = %v", pct)
	}
}

func TestRollupGroupByLabel(t *testing.T) {
	p := synthetic(allocSpace,
		[][]string{{"a"}, {"b"}, {"c"}},
		[]int64{50, 30, 20},
		[]map[string]string{
			{"phase": "steps"},
			{"phase": "plan"},
			nil,
		})
	r, err := NewRollup([]*Profile{p}, "", "phase")
	if err != nil {
		t.Fatal(err)
	}
	if r.ByLabel["steps"] != 50 || r.ByLabel["plan"] != 30 || r.ByLabel["(none)"] != 20 {
		t.Fatalf("ByLabel = %v", r.ByLabel)
	}
}

func TestRollupMergeAndMismatch(t *testing.T) {
	p1 := synthetic(allocSpace, [][]string{{"a"}}, []int64{10}, nil)
	p2 := synthetic(allocSpace, [][]string{{"a"}}, []int64{5}, nil)
	r, err := NewRollup([]*Profile{p1, p2}, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if r.Frames["a"].Flat != 15 {
		t.Fatalf("merged flat = %d", r.Frames["a"].Flat)
	}
	p3 := synthetic(ValueType{Type: "cpu", Unit: "nanoseconds"}, [][]string{{"a"}}, []int64{5}, nil)
	if _, err := NewRollup([]*Profile{p1, p3}, "", ""); err == nil {
		t.Fatal("mixed sample types should error")
	}
}

func TestDiff(t *testing.T) {
	base, _ := NewRollup([]*Profile{synthetic(allocSpace,
		[][]string{{"hot"}, {"steady"}}, []int64{80, 20}, nil)}, "", "")
	cur, _ := NewRollup([]*Profile{synthetic(allocSpace,
		[][]string{{"hot"}, {"steady"}, {"newcomer"}}, []int64{40, 20, 40}, nil)}, "", "")
	rows := Diff(base, cur, 1.0)
	if len(rows) != 3 {
		t.Fatalf("rows = %+v", rows)
	}
	// hot dropped 80%→40% and newcomer appeared at 40%: both |delta| 40.
	if rows[0].Name != "hot" && rows[0].Name != "newcomer" {
		t.Fatalf("top delta = %+v", rows[0])
	}
	for _, row := range rows {
		if row.Name == "steady" && row.DeltaPct != 0 {
			t.Fatalf("steady delta = %v", row.DeltaPct)
		}
	}
	// minPct filter drops everything when the threshold is above all shares.
	if got := Diff(base, cur, 99); len(got) != 0 {
		t.Fatalf("minPct filter: %+v", got)
	}
}

func TestBaselineCheck(t *testing.T) {
	base, _ := NewRollup([]*Profile{synthetic(allocSpace,
		[][]string{{"hot"}, {"steady"}}, []int64{80, 20}, nil)}, "", "")
	b := NewBaseline(base, 10, "test")
	if len(b.Frames) != 2 || b.Sample != "alloc_space/bytes" {
		t.Fatalf("baseline = %+v", b)
	}

	// Identical profile: clean.
	if v := Check(b, base, DefaultCheckOpts()); len(v) != 0 {
		t.Fatalf("self check: %+v", v)
	}

	// New frame above NewPct fails; growth past factor fails.
	cur, _ := NewRollup([]*Profile{synthetic(allocSpace,
		[][]string{{"hot"}, {"steady"}, {"leak"}}, []int64{80, 70, 50}, nil)}, "", "")
	viol := Check(b, cur, DefaultCheckOpts())
	kinds := map[string]string{}
	for _, v := range viol {
		kinds[ShortName(v.Frame)] = v.Kind
	}
	if kinds["leak"] != "new-frame" {
		t.Errorf("leak: %+v", viol)
	}
	if kinds["steady"] != "growth" { // 20% -> 35% > 1.5×
		t.Errorf("steady: %+v", viol)
	}
	if _, bad := kinds["hot"]; bad { // shrank 80% -> 40%: improvements free
		t.Errorf("hot should not violate: %+v", viol)
	}

	// Sample-type mismatch is its own violation.
	cpu, _ := NewRollup([]*Profile{synthetic(ValueType{Type: "cpu", Unit: "nanoseconds"},
		[][]string{{"hot"}}, []int64{10}, nil)}, "", "")
	if v := Check(b, cpu, DefaultCheckOpts()); len(v) != 1 || v[0].Kind != "sample-mismatch" {
		t.Fatalf("mismatch check: %+v", v)
	}
}

func TestBaselineFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_prof.json")
	base, _ := NewRollup([]*Profile{synthetic(allocSpace,
		[][]string{{"hot"}}, []int64{100}, nil)}, "", "")
	if err := WriteBaseline(path, NewBaseline(base, 5, "unit test")); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Frames) != 1 || got.Frames[0].Name != "hot" || got.Frames[0].FlatPct != 100 {
		t.Fatalf("round trip = %+v", got)
	}
	bench := filepath.Join(dir, "BENCH_sweep.json")
	writeFile(t, bench, `{"benchmarks":[{"name":"x","ns_per_op":1}]}`)
	if _, err := ReadBaseline(bench); err == nil {
		t.Fatal("ReadBaseline should reject a frameless file")
	}
}

func TestFormatValueAndShortName(t *testing.T) {
	if got := FormatValue(2_500_000, "nanoseconds"); got != "2.5ms" {
		t.Fatal(got)
	}
	if got := FormatValue(2048, "bytes"); got != "2.0KB" {
		t.Fatal(got)
	}
	if got := FormatValue(3<<20, "bytes"); got != "3.0MB" {
		t.Fatal(got)
	}
	if got := FormatValue(7, "count"); got != "7" {
		t.Fatal(got)
	}
	if got := ShortName("heb/internal/sim.(*Engine).Run"); got != "sim.(*Engine).Run" {
		t.Fatal(got)
	}
	if got := ShortName("main.main"); got != "main.main" {
		t.Fatal(got)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
