package pat

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"heb/internal/units"
)

// seededTable builds a table with a spread of operating points, some
// looked up and some updated so Hits/Updates/lookups/misses are all
// non-zero.
func seededTable(t *testing.T) *Table {
	t.Helper()
	tab := MustNew(Config{LevelBins: 10, PMBinWatts: 20, DeltaR: 0.01, MaxEntries: 64})
	for i := 0; i < 8; i++ {
		tab.Add(float64(i)/10, float64(8-i)/10, units.Power(40*i), 0.3+0.05*float64(i))
	}
	tab.Lookup(0.1, 0.7, 40)  // exact hit
	tab.Lookup(0.95, 0.95, 5) // miss, served by similar
	tab.Update(0.2, 0.6, 80, 0.5, DriftBatteryFast)
	return tab
}

// TestDigestIndependentOfInsertionOrder: the digest is a commutative fold,
// so the same entries added in opposite orders digest alike.
func TestDigestIndependentOfInsertionOrder(t *testing.T) {
	fwd, rev := MustNew(DefaultConfig()), MustNew(DefaultConfig())
	for i := 0; i < 50; i++ {
		fwd.Add(float64(i)/50, 0.5, units.Power(20*i), float64(i)/50)
		j := 49 - i
		rev.Add(float64(j)/50, 0.5, units.Power(20*j), float64(j)/50)
	}
	if a, b := fwd.Digest(), rev.Digest(); a != b || a.Len != 50 {
		t.Fatalf("digests differ by insertion order: %+v vs %+v", a, b)
	}
}

// TestDigestSeesEveryField: a change to any one field of one entry
// changes the digest; the length alone would not catch any of these.
// Each variant is the seeded table's entries with the first one mutated,
// rebuilt through Load; the moved key lands on the overflow path.
func TestDigestSeesEveryField(t *testing.T) {
	tab := seededTable(t)
	base := tab.Digest()
	for name, mutate := range map[string]func(e *Entry){
		"none":    func(e *Entry) {},
		"ratio":   func(e *Entry) { e.Ratio -= 1e-12 },
		"hits":    func(e *Entry) { e.Hits++ },
		"updates": func(e *Entry) { e.Updates++ },
		"key": func(e *Entry) {
			e.Key.PMLevel += 1000
		},
	} {
		entries := tab.Entries()
		mutate(&entries[0])
		raw, err := json.Marshal(tableJSON{Config: tab.Config(), Entries: entries})
		if err != nil {
			t.Fatal(err)
		}
		back, err := Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := back.Digest(); (got == base) != (name == "none") {
			t.Errorf("%s: digest %+v against base %+v", name, got, base)
		}
	}
}

// TestCheckpointJSON pins the record shape: the entries collapse to
// {len, digest} with the 64-bit sum quoted, so JSON readers that decode
// numbers as float64 still compare it exactly.
func TestCheckpointJSON(t *testing.T) {
	tab := seededTable(t)
	raw, err := json.Marshal(tab.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"entries":{"len":8,"digest":"`) {
		t.Fatalf("unexpected entries encoding: %s", raw)
	}
	var back TableState
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back != tab.Checkpoint() {
		t.Fatalf("round trip: %+v != %+v", back, tab.Checkpoint())
	}
}

// TestResetDigestsLikeFresh: a pooled table reset and re-filled digests
// like a fresh table filled the same way.
func TestResetDigestsLikeFresh(t *testing.T) {
	reused := seededTable(t)
	reused.Reset()
	fresh := MustNew(DefaultConfig())
	for _, tab := range []*Table{reused, fresh} {
		tab.Add(0.5, 0.5, 100, 0.4)
		tab.Lookup(0.3, 0.3, 300)
	}
	if a, b := reused.Digest(), fresh.Digest(); a != b {
		t.Fatalf("reset table digests %+v, fresh %+v", a, b)
	}
}
