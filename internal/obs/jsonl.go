package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSONL writes recs one JSON object per line: the format of every
// JSONL artifact (events, decisions, probes, audits, checkpoints,
// alerts).
func WriteJSONL[T any](w io.Writer, recs []T) error {
	bw := bufio.NewWriter(w)
	if err := encodeAll(json.NewEncoder(bw), recs); err != nil {
		return fmt.Errorf("obs: write JSONL: %w", err)
	}
	return bw.Flush()
}

// encodeAll writes recs one JSON object per line.
func encodeAll[T any](enc *json.Encoder, recs []T) error {
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL parses a stream of JSON objects, one per line as WriteJSONL
// writes them; blank lines and other whitespace between records are
// skipped. On a malformed record it returns the records read so far with
// an error naming the 0-based index of the record that failed.
func ReadJSONL[T any](r io.Reader) ([]T, error) {
	var out []T
	dec := json.NewDecoder(r)
	for {
		var rec T
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("obs: read record %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
}
