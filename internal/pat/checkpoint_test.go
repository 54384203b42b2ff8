package pat

import (
	"bytes"
	"encoding/json"
	"math/rand"

	"heb/internal/units"
	"testing"
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

// TestAppendCheckpointJSONMatchesMarshal pins the hand-rolled keyframe
// encoder to encoding/json byte for byte: the checkpoint chain's
// validators unmarshal with the stdlib, so the fast path may not drift
// from it in field order, number formatting, or entry order.
func TestAppendCheckpointJSONMatchesMarshal(t *testing.T) {
	tab := seededTable(t)
	want, err := json.Marshal(tab.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	got, err := tab.AppendCheckpointJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendCheckpointJSON drifted from json.Marshal:\n got %s\nwant %s", got, want)
	}
}

// TestAppendCheckpointJSONNegativeKeys exercises the packed-key sort
// with levels below zero: the bias must keep integer order identical to
// keyLess, so the encoder's entry order still matches Entries().
func TestAppendCheckpointJSONNegativeKeys(t *testing.T) {
	tab := MustNew(DefaultConfig())
	for _, k := range []Key{
		{SCLevel: -3, BALevel: 5, PMLevel: -1},
		{SCLevel: -3, BALevel: 5, PMLevel: 2},
		{SCLevel: -3, BALevel: -5, PMLevel: 9},
		{SCLevel: 0, BALevel: 0, PMLevel: 0},
		{SCLevel: 4, BALevel: -2, PMLevel: -7},
	} {
		tab.entries[k] = &Entry{Key: k, Ratio: 0.5, Hits: 1}
	}
	want, err := json.Marshal(tab.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	got, err := tab.AppendCheckpointJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("negative-key encode drifted from json.Marshal:\n got %s\nwant %s", got, want)
	}
}

// TestAppendCheckpointJSONOverflowFallback forces a key outside the
// packable ±2^20 range; the slow path must produce the same bytes.
func TestAppendCheckpointJSONOverflowFallback(t *testing.T) {
	tab := seededTable(t)
	k := Key{SCLevel: 1 << 21, BALevel: 0, PMLevel: 0}
	tab.entries[k] = &Entry{Key: k, Ratio: 1}
	want, err := json.Marshal(tab.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	got, err := tab.AppendCheckpointJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("overflow fallback drifted from json.Marshal:\n got %s\nwant %s", got, want)
	}
}

// TestPackKeyOrderMatchesKeyLess is the property the packed sort leans
// on: for in-range keys, integer order of the packed form is exactly
// keyLess, and unpack inverts pack.
func TestPackKeyOrderMatchesKeyLess(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randKey := func() Key {
		return Key{
			SCLevel: rng.Intn(2*keyPackBias) - keyPackBias,
			BALevel: rng.Intn(2*keyPackBias) - keyPackBias,
			PMLevel: rng.Intn(2*keyPackBias) - keyPackBias,
		}
	}
	for i := 0; i < 10000; i++ {
		a, b := randKey(), randKey()
		pa, ok := packKey(a)
		if !ok {
			t.Fatalf("in-range key %+v not packable", a)
		}
		if back := unpackKey(pa); back != a {
			t.Fatalf("round trip %+v -> %d -> %+v", a, pa, back)
		}
		pb, _ := packKey(b)
		if (pa < pb) != keyLess(a, b) {
			t.Fatalf("packed order disagrees with keyLess for %+v vs %+v", a, b)
		}
	}
	if _, ok := packKey(Key{SCLevel: keyPackBias}); ok {
		t.Fatal("out-of-range key reported packable")
	}
	if _, ok := packKey(Key{PMLevel: -keyPackBias - 1}); ok {
		t.Fatal("out-of-range negative key reported packable")
	}
}

// TestCheckpointPatchTracksChanges walks a mark/mutate/patch cycle: the
// patch carries exactly the touched entries, tombstones for evictions,
// and nothing after a fresh mark.
func TestCheckpointPatchTracksChanges(t *testing.T) {
	tab := MustNew(Config{LevelBins: 10, PMBinWatts: 20, DeltaR: 0.01, MaxEntries: 3})
	tab.Add(0.1, 0.9, 10, 0.4)
	tab.Add(0.5, 0.5, 50, 0.5)
	tab.TrackChanges()
	tab.MarkCheckpointed()

	p, err := tab.CheckpointPatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Entries) != 0 || len(p.Drop) != 0 {
		t.Fatalf("clean table produced non-empty patch: %+v", p)
	}
	if p.MergeKey != "Key" {
		t.Fatalf("merge key %q, want Key", p.MergeKey)
	}

	// One update dirties one entry.
	tab.Update(0.1, 0.9, 10, 0.4, DriftBatteryFast)
	p, err = tab.CheckpointPatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Entries) != 1 || p.Entries[0].Updates != 1 {
		t.Fatalf("update not reflected in patch: %+v", p.Entries)
	}

	// Filling past MaxEntries evicts the coldest; the patch must carry
	// both the new entries and the tombstone.
	evicted := tab.Entries()[0].Key // all Hits equal: coldest is lowest key
	tab.Add(0.7, 0.2, 90, 0.6)
	tab.Add(0.9, 0.1, 120, 0.7)
	p, err = tab.CheckpointPatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Drop) != 1 || p.Drop[0] != evicted {
		t.Fatalf("eviction tombstone missing: drop=%v want [%+v]", p.Drop, evicted)
	}

	// Marking resets the baseline.
	tab.MarkCheckpointed()
	p, err = tab.CheckpointPatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Entries) != 0 || len(p.Drop) != 0 {
		t.Fatalf("patch not empty after mark: %+v", p)
	}
}

// TestCheckpointPatchRequiresTracking: a patch from an untracked table
// would silently claim nothing changed, so it must error instead.
func TestCheckpointPatchRequiresTracking(t *testing.T) {
	tab := MustNew(DefaultConfig())
	if _, err := tab.CheckpointPatch(); err == nil {
		t.Fatal("CheckpointPatch without TrackChanges did not error")
	}
}

// TestResetTurnsTrackingOff: a pooled table reset after serving a
// delta-checkpointed run behaves like a fresh one and tracks nothing
// until TrackChanges is called again.
func TestResetTurnsTrackingOff(t *testing.T) {
	tab := MustNew(DefaultConfig())
	tab.TrackChanges()
	tab.Add(0.5, 0.5, 100, 0.4)
	tab.Reset()
	tab.Add(0.5, 0.5, 100, 0.4)
	tab.Add(0.1, 0.9, 20, 0.6)
	tab.Lookup(0.5, 0.5, 100)
	tab.Lookup(0.3, 0.3, 300)
	if len(tab.dirty) != 0 || len(tab.dropped) != 0 {
		t.Fatalf("reset table tracked %d dirty and %d dropped keys", len(tab.dirty), len(tab.dropped))
	}
	if _, err := tab.CheckpointPatch(); err == nil {
		t.Fatal("CheckpointPatch after Reset did not require TrackChanges")
	}
}
