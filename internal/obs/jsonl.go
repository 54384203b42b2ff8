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
	if err := encodeAll(newJSONLEncoder(bw), recs); err != nil {
		return fmt.Errorf("obs: write JSONL: %w", err)
	}
	return bw.Flush()
}

// jsonlEncoder writes records one JSON object per line to w: a record
// type with an appendJSON method through one reused buffer, any other
// through encoding/json.
type jsonlEncoder struct {
	w   io.Writer
	enc *json.Encoder
	buf []byte
}

func newJSONLEncoder(w io.Writer) *jsonlEncoder {
	return &jsonlEncoder{w: w, enc: json.NewEncoder(w)}
}

// encode writes one record; on error it writes nothing.
func (e *jsonlEncoder) encode(v any) error {
	a, ok := v.(jsonAppender)
	if !ok {
		return e.enc.Encode(v)
	}
	b, err := a.appendJSON(e.buf[:0])
	e.buf = b
	if err != nil {
		return err
	}
	e.buf = append(e.buf, '\n')
	_, err = e.w.Write(e.buf)
	return err
}

// encodeAll writes recs one JSON object per line.
func encodeAll[T any](e *jsonlEncoder, recs []T) error {
	for i := range recs {
		if err := e.encode(&recs[i]); err != nil {
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
