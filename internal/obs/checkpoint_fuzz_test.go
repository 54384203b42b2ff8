package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzReadCheckpoints feeds ReadCheckpoints and the chain validator —
// what hebsim -resume/-replay, hebobs bisect and hebobs check run on a
// checkpoints.jsonl before trusting it — arbitrary bytes. The reader
// must return exactly the records ReadJSONL[CheckpointRecord] returns,
// nil-ness included, and fail exactly when it fails, whichever of its
// two paths the input takes; a chain the validator accepts must
// hash-check record by record, also when it is the prefix a failed read
// returned. The seed is a valid v4 chain;
// testdata/fuzz/FuzzReadCheckpoints holds a multi-run chain with a delta
// record, each input that leaves the written layout (CRLF, a blank line,
// a pretty-printed record, reordered keys, an escaped run label, an
// exponent slot, a null state, trailing bytes) and the malformed corpus
// (v2 and v3 records, a delta record, a broken prev link, a truncated
// line, a non-object state, a decreasing slot, a huge slot number).
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
		records, err := ReadCheckpoints(bytes.NewReader(raw))
		want, werr := ReadJSONL[CheckpointRecord](bytes.NewReader(raw))
		if (err != nil) != (werr != nil) {
			t.Fatalf("ReadCheckpoints error %v, ReadJSONL error %v", err, werr)
		}
		if !reflect.DeepEqual(records, want) {
			t.Fatalf("ReadCheckpoints records differ from ReadJSONL's:\n got  %+v\n want %+v", records, want)
		}
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
