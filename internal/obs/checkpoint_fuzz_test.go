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
