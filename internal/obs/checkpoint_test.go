package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"heb/internal/pat"
)

// TestKeyframeCadence pins the delta schedule: chain index 0 is always a
// keyframe, every index divisible by the cadence is a keyframe, and a
// cadence of 1 (or less) disables deltas entirely.
func TestKeyframeCadence(t *testing.T) {
	l := NewCheckpointLog()
	for i := 0; i < 20; i++ {
		wantDelta := i%8 != 0
		if got := l.NextIsDelta(8); got != wantDelta {
			t.Errorf("record %d: NextIsDelta(8) = %v, want %v", i, got, wantDelta)
		}
		if l.NextIsDelta(1) {
			t.Errorf("record %d: NextIsDelta(1) must always be false", i)
		}
		l.Append(i, i*600, float64(i*600), json.RawMessage(`{}`), wantDelta)
	}
}

// deltaChain builds a 3-record chain — keyframe, then two deltas — whose
// state documents exercise every splice rule: array splices with @base
// offsets, nested-object recursion, wholesale replacement, and key drops.
func deltaChain(t *testing.T) []CheckpointRecord {
	t.Helper()
	l := NewCheckpointLog()
	l.Append(0, 0, 0, json.RawMessage(
		`{"series":[1,2],"nested":{"inner":[10],"scalar":"a"},"gone":true,"x":1}`), false)
	l.Append(1, 600, 600, json.RawMessage(
		`{"series":[3],"series@base":2,"nested":{"inner":[20],"inner@base":1,"scalar":"b"},"x":2}`), true)
	l.Append(2, 1200, 1200, json.RawMessage(
		`{"series":[4,5],"series@base":3,"nested":{"inner":[],"inner@base":2,"scalar":"c"},"x":3}`), true)
	return l.Records()
}

// TestMaterializeAtSplicesDeltas checks full reconstruction through a
// delta chain: series grow by suffix, nested series recurse, scalars
// replace, and keys absent from a delta are dropped.
func TestMaterializeAtSplicesDeltas(t *testing.T) {
	records := deltaChain(t)
	if err := ValidateCheckpoints(records); err != nil {
		t.Fatal(err)
	}

	// Keyframes come back byte-identical.
	state, err := MaterializeAt(records, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(state) != string(records[0].State) {
		t.Fatalf("keyframe state not byte-identical: %s", state)
	}

	for i, want := range []map[string]any{
		nil, // index 0 checked above
		{
			"series": []any{1.0, 2.0, 3.0},
			"nested": map[string]any{"inner": []any{10.0, 20.0}, "scalar": "b"},
			"x":      2.0,
		},
		{
			"series": []any{1.0, 2.0, 3.0, 4.0, 5.0},
			"nested": map[string]any{"inner": []any{10.0, 20.0}, "scalar": "c"},
			"x":      3.0,
		},
	} {
		if want == nil {
			continue
		}
		raw, err := MaterializeAt(records, i)
		if err != nil {
			t.Fatalf("materialize %d: %v", i, err)
		}
		var got map[string]any
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("materialize %d:\n got %v\nwant %v", i, got, want)
		}
		if _, ok := got["gone"]; ok {
			t.Errorf("materialize %d: key absent from delta survived", i)
		}
	}
}

// TestMaterializeKeyedMerge checks the @mergekey/@drop splice through a
// full chain: dropped identities leave (order preserved), upserts of a
// known identity replace in place, and new identities append in delta
// order. The merge key is a struct-valued field, the shape the PAT's
// TablePatch emits.
func TestMaterializeKeyedMerge(t *testing.T) {
	l := NewCheckpointLog()
	l.Append(0, 0, 0, json.RawMessage(
		`{"entries":[{"Key":{"A":1},"V":1},{"Key":{"A":2},"V":2},{"Key":{"A":3},"V":3}],"x":1}`), false)
	l.Append(1, 600, 600, json.RawMessage(
		`{"entries":[{"Key":{"A":2},"V":22},{"Key":{"A":4},"V":4}],`+
			`"entries@mergekey":"Key","entries@drop":[{"A":3}],"x":2}`), true)
	records := l.Records()
	if err := ValidateCheckpoints(records); err != nil {
		t.Fatal(err)
	}
	raw, err := MaterializeAt(records, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	want := []any{
		map[string]any{"Key": map[string]any{"A": 1.0}, "V": 1.0},
		map[string]any{"Key": map[string]any{"A": 2.0}, "V": 22.0},
		map[string]any{"Key": map[string]any{"A": 4.0}, "V": 4.0},
	}
	if !reflect.DeepEqual(got["entries"], want) {
		t.Fatalf("keyed merge:\n got %v\nwant %v", got["entries"], want)
	}
	if _, ok := got["entries@mergekey"]; ok {
		t.Fatal("companion key materialized into the state document")
	}
}

// TestMaterializePATPatch is the cross-package contract test: a real
// pat.Table's CheckpointPatch, spliced against the keyframe's full
// TableState, must materialize back into a document TableState
// unmarshals — holding exactly the live table's entries and statistics.
func TestMaterializePATPatch(t *testing.T) {
	tab := pat.MustNew(pat.DefaultConfig())
	tab.Add(0.1, 0.9, 10, 0.4)
	tab.Add(0.5, 0.5, 50, 0.5)
	tab.TrackChanges()

	key, err := json.Marshal(map[string]any{"pat": tab.Checkpoint()})
	if err != nil {
		t.Fatal(err)
	}
	tab.MarkCheckpointed()
	tab.Update(0.1, 0.9, 10, 0.4, pat.DriftBatteryFast)
	tab.Add(0.8, 0.2, 90, 0.7)
	patch, err := tab.CheckpointPatch()
	if err != nil {
		t.Fatal(err)
	}
	del, err := json.Marshal(map[string]any{"pat": patch})
	if err != nil {
		t.Fatal(err)
	}

	l := NewCheckpointLog()
	l.Append(0, 0, 0, key, false)
	l.Append(1, 600, 600, del, true)
	raw, err := MaterializeAt(l.Records(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PAT pat.TableState `json:"pat"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	// A keyed merge appends new identities, so compare entries by key.
	byKey := func(es []pat.Entry) map[pat.Key]pat.Entry {
		m := make(map[pat.Key]pat.Entry, len(es))
		for _, e := range es {
			m[e.Key] = e
		}
		return m
	}
	got, want := doc.PAT, tab.Checkpoint()
	if got.Config != want.Config || got.Lookups != want.Lookups || got.Misses != want.Misses ||
		len(got.Entries) != len(want.Entries) || !reflect.DeepEqual(byKey(got.Entries), byKey(want.Entries)) {
		t.Fatalf("materialized PAT drifted from live table:\n got %+v\nwant %+v", got, want)
	}
}

// TestSpliceKeyedMergeErrors pins the malformed-patch failures: a merge
// key that is not a string, elements that are not objects, a drop list
// that is not an array, and a delta value that is not an array must all
// error instead of corrupting the materialized state.
func TestSpliceKeyedMergeErrors(t *testing.T) {
	prev := map[string]any{"entries": []any{map[string]any{"k": 1.0}}}
	for name, delta := range map[string]string{
		"merge key not a string": `{"entries":[],"entries@mergekey":7}`,
		"element not an object":  `{"entries":[42],"entries@mergekey":"k"}`,
		"drop list not an array": `{"entries":[],"entries@mergekey":"k","entries@drop":"k"}`,
		"delta value not array":  `{"entries":{"k":1},"entries@mergekey":"k"}`,
	} {
		var dm map[string]any
		if err := json.Unmarshal(json.RawMessage(delta), &dm); err != nil {
			t.Fatal(err)
		}
		if _, err := spliceCheckpointDelta(prev, dm); err == nil {
			t.Errorf("%s: splice accepted malformed delta %s", name, delta)
		}
	}
}

// TestMaterializeAtSkipsForeignRuns checks multi-run captures: the
// backward scan to the keyframe must only follow records of the same run.
func TestMaterializeAtSkipsForeignRuns(t *testing.T) {
	records := deltaChain(t)
	for i := range records {
		records[i].Run = "a"
	}
	// Interleave another run's keyframe between a's keyframe and deltas.
	foreign := CheckpointRecord{V: CheckpointVersion, Run: "b", Slot: 0, State: json.RawMessage(`{"series":[99]}`)}
	foreign.Hash = HashCheckpoint(foreign)
	mixed := []CheckpointRecord{records[0], foreign, records[1], records[2]}

	raw, err := MaterializeAt(mixed, 3)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got["series"], []any{1.0, 2.0, 3.0, 4.0, 5.0}) {
		t.Fatalf("delta spliced against the wrong run's keyframe: %v", got["series"])
	}
}

// TestMaterializeAtBadOffset rejects splice offsets that do not index
// the previous series — beyond its length, negative, or fractional —
// instead of panicking or silently corrupting state. The hashes are
// recomputable, so every such chain passes ValidateCheckpoints and
// MaterializeAt is the last line of defence.
func TestMaterializeAtBadOffset(t *testing.T) {
	for base, want := range map[string]string{
		"5":   "beyond previous length",
		"-1":  "not a non-negative integer",
		"1.5": "not a non-negative integer",
		`"0"`: "not a non-negative integer",
	} {
		l := NewCheckpointLog()
		l.Append(0, 0, 0, json.RawMessage(`{"series":[1,2]}`), false)
		l.Append(1, 600, 600, json.RawMessage(`{"series":[3],"series@base":`+base+`}`), true)
		records := l.Records()
		if err := ValidateCheckpoints(records); err != nil {
			t.Fatalf("@base %s: %v", base, err)
		}
		if _, err := MaterializeAt(records, 1); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("@base %s: got %v, want an error containing %q", base, err, want)
		}
	}
}

// v1Hash is the retired schema-1 chain hash: SHA-256 over the header
// fields followed by the whole state payload.
func v1Hash(r CheckpointRecord) string {
	h := sha256.New()
	fmt.Fprintf(h, "v=%d|slot=%d|step=%d|t=%g|prev=%s|", r.V, r.Slot, r.Step, r.Seconds, r.Prev)
	h.Write(r.State)
	return hex.EncodeToString(h.Sum(nil))
}

// TestValidateRejectsV1Records holds readers to the single schema: a v1
// record is refused even when its v1 hash is correct, a v2 record (whose
// state still carried the obs half) even when its hash is, and so are
// chains that open with a delta and records from a future version.
func TestValidateRejectsV1Records(t *testing.T) {
	mk := func(v, slot int, delta bool, prev string) CheckpointRecord {
		r := CheckpointRecord{V: v, Slot: slot, Step: slot * 600, Seconds: float64(slot * 600),
			State: json.RawMessage(`{}`), Delta: delta, Prev: prev}
		r.Hash = HashCheckpoint(r)
		return r
	}
	v1 := CheckpointRecord{V: 1, Slot: 0, State: json.RawMessage(`{}`)}
	v1.Hash = v1Hash(v1)
	if err := ValidateCheckpoints([]CheckpointRecord{v1}); err == nil || !strings.Contains(err.Error(), "unknown schema version 1") {
		t.Fatalf("v1 record not rejected: %v", err)
	}
	v2 := mk(2, 0, false, "")
	if err := ValidateCheckpoints([]CheckpointRecord{v2}); err == nil || !strings.Contains(err.Error(), "unknown schema version 2") {
		t.Fatalf("v2 record not rejected: %v", err)
	}
	key := mk(CheckpointVersion, 0, false, "")
	delta := mk(CheckpointVersion, 1, true, key.Hash)
	if err := ValidateCheckpoints([]CheckpointRecord{key, delta}); err != nil {
		t.Fatalf("current-version chain rejected: %v", err)
	}
	// A chain may not open with a delta.
	orphan := mk(CheckpointVersion, 0, true, "")
	if err := ValidateCheckpoints([]CheckpointRecord{orphan}); err == nil {
		t.Fatal("chain opening with a delta accepted")
	}
	// A future schema version must be refused.
	future := mk(CheckpointVersion+1, 0, false, "")
	if err := ValidateCheckpoints([]CheckpointRecord{future}); err == nil {
		t.Fatal("future schema version accepted")
	}
}
