package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzReadCheckpoints feeds the chain reader and validator — what
// hebsim -resume/-replay, hebobs bisect and hebobs check run on a
// checkpoints.jsonl before trusting it — arbitrary bytes: both must
// return an error or a verdict, never panic, and a chain the validator
// accepts must hash-check record by record. The seed is a valid v4
// chain; testdata/fuzz/FuzzReadCheckpoints holds the malformed corpus (v2
// and v3 records, a delta record, a broken prev link, a truncated line, a
// non-object state, a decreasing slot, a huge slot number).
func FuzzReadCheckpoints(f *testing.F) {
	l := NewCheckpointLog()
	l.Append(1, 600, 600, json.RawMessage(`{"steps":600,"demand_series":{"len":600,"digest":"1234567890123456789"}}`))
	l.Append(2, 1200, 1200, json.RawMessage(`{"steps":1200,"demand_series":{"len":1200,"digest":"987654321"}}`))
	var seed bytes.Buffer
	if err := WriteJSONL(&seed, l.Records()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		records, _ := ReadJSONL[CheckpointRecord](bytes.NewReader(raw))
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
