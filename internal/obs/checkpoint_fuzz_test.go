package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzMaterializeAt feeds checkpoints.jsonl readers arbitrary bytes:
// every record of whatever ReadCheckpoints accepts must materialize to
// valid JSON or come back as an error, never a panic. Hashes are not
// checked first — a forged chain can always recompute them — so the
// splice rules alone must hold malformed deltas off. The seed is a valid
// keyframe/delta chain; testdata/fuzz/FuzzMaterializeAt holds the
// malformed corpus.
func FuzzMaterializeAt(f *testing.F) {
	l := NewCheckpointLog()
	l.Append(0, 0, 0, json.RawMessage(`{"series":[1,2],"pat":[{"k":1,"v":1}],"nested":{"inner":[10]}}`), false)
	l.Append(1, 600, 600, json.RawMessage(
		`{"series":[3],"series@base":2,"pat":[{"k":2,"v":2}],"pat@mergekey":"k","pat@drop":[1],"nested":{"inner":[20],"inner@base":1}}`), true)
	var seed bytes.Buffer
	if err := WriteCheckpointsJSONL(&seed, l.Records()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		records, err := ReadCheckpoints(bytes.NewReader(raw))
		if err != nil {
			return
		}
		for i := range records {
			state, err := MaterializeAt(records, i)
			if err == nil && records[i].Delta && !json.Valid(state) {
				t.Fatalf("record %d materialized to invalid JSON: %s", i, state)
			}
		}
	})
}

// FuzzReadCheckpoints feeds the chain reader and validator — what
// hebsim -resume/-replay, hebobs bisect and hebobs check run on a
// checkpoints.jsonl before trusting it — arbitrary bytes: both must
// return an error or a verdict, never panic, and a chain the validator
// accepts must hash-check record by record. The seed is a valid
// keyframe/delta chain; testdata/fuzz/FuzzReadCheckpoints holds the
// malformed corpus (a v2 record, a broken prev link, a truncated line, a
// non-object state, a decreasing slot, a huge slot number).
func FuzzReadCheckpoints(f *testing.F) {
	l := NewCheckpointLog()
	l.Append(1, 600, 600, json.RawMessage(`{"steps":600,"demand_series":[1,2]}`), false)
	l.Append(2, 1200, 1200, json.RawMessage(`{"steps":1200,"demand_series":[3],"demand_series@base":2}`), true)
	var seed bytes.Buffer
	if err := WriteCheckpointsJSONL(&seed, l.Records()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		records, _ := ReadCheckpoints(bytes.NewReader(raw))
		if ValidateCheckpoints(records) != nil {
			return
		}
		for i, r := range records {
			if HashCheckpoint(r) != r.Hash {
				t.Fatalf("validated record %d does not hash to its stored hash", i)
			}
		}
	})
}
