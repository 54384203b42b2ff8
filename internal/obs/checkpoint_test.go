package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestValidateRejectsV1Records holds readers to the single schema: v1,
// v2 and v3 records are refused with a hint to re-record, even when
// their hashes are correct, and so are delta records and records from a
// future version.
func TestValidateRejectsV1Records(t *testing.T) {
	mk := func(v, slot int, delta bool, prev string) CheckpointRecord {
		r := CheckpointRecord{V: v, Slot: slot, Step: slot * 600, Seconds: float64(slot * 600),
			State: json.RawMessage(`{}`), Delta: delta, Prev: prev}
		r.Hash = HashCheckpoint(r)
		return r
	}
	for v := 1; v < CheckpointVersion; v++ {
		err := ValidateCheckpoints([]CheckpointRecord{mk(v, 0, false, "")})
		if err == nil || !strings.Contains(err.Error(), "unknown schema version") || !strings.Contains(err.Error(), "re-record") {
			t.Fatalf("v%d record not rejected clearly: %v", v, err)
		}
	}
	key := mk(CheckpointVersion, 0, false, "")
	next := mk(CheckpointVersion, 1, false, key.Hash)
	if err := ValidateCheckpoints([]CheckpointRecord{key, next}); err != nil {
		t.Fatalf("current-version chain rejected: %v", err)
	}
	// No record may be a delta, first or not.
	delta := mk(CheckpointVersion, 1, true, key.Hash)
	if err := ValidateCheckpoints([]CheckpointRecord{key, delta}); err == nil || !strings.Contains(err.Error(), "delta") {
		t.Fatalf("delta record accepted: %v", err)
	}
	future := mk(CheckpointVersion+1, 0, false, "")
	if err := ValidateCheckpoints([]CheckpointRecord{future}); err == nil {
		t.Fatal("future schema version accepted")
	}
}

// TestHashCheckpointCoversEveryField: the chain hash changes with any
// header field or state byte, and ignores the late-stamped run label.
func TestHashCheckpointCoversEveryField(t *testing.T) {
	base := CheckpointRecord{V: CheckpointVersion, Slot: 3, Step: 1800, Seconds: 1800,
		State: json.RawMessage(`{"steps":1800}`), Prev: "abc"}
	want := HashCheckpoint(base)
	for name, mutate := range map[string]func(r *CheckpointRecord){
		"slot":    func(r *CheckpointRecord) { r.Slot++ },
		"step":    func(r *CheckpointRecord) { r.Step++ },
		"seconds": func(r *CheckpointRecord) { r.Seconds++ },
		"prev":    func(r *CheckpointRecord) { r.Prev = "abd" },
		"state":   func(r *CheckpointRecord) { r.State = json.RawMessage(`{"steps":1801}`) },
	} {
		r := base
		mutate(&r)
		if HashCheckpoint(r) == want {
			t.Errorf("%s: hash unchanged", name)
		}
	}
	labeled := base
	labeled.Run = "HEB-D/PR"
	if HashCheckpoint(labeled) != want {
		t.Error("run label changed the hash")
	}
}

// TestMaterializeAtIndexes: every record stores its state whole, so
// MaterializeAt returns it as stored and bounds-checks the index.
func TestMaterializeAtIndexes(t *testing.T) {
	l := NewCheckpointLog()
	l.Append(0, 0, 0, json.RawMessage(`{"steps":0}`))
	l.Append(1, 600, 600, json.RawMessage(`{"steps":600}`))
	records := l.Records()
	for i, r := range records {
		got, err := MaterializeAt(records, i)
		if err != nil || string(got) != string(r.State) {
			t.Fatalf("record %d: %s, %v", i, got, err)
		}
	}
	for _, i := range []int{-1, len(records)} {
		if _, err := MaterializeAt(records, i); err == nil {
			t.Errorf("index %d accepted", i)
		}
	}
}
