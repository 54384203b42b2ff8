package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
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

// TestHashCheckpointHeaderMatchesFmt: the strconv header hashes the
// bytes fmt's "v=%d|slot=%d|step=%d|t=%g|prev=%s|" printed, over the
// float corner cases and negative counters.
func TestHashCheckpointHeaderMatchesFmt(t *testing.T) {
	for _, r := range []CheckpointRecord{
		{V: CheckpointVersion, Slot: 3, Step: 1800, Seconds: 1800, State: json.RawMessage(`{}`), Prev: "abc"},
		{V: -1, Slot: math.MinInt64, Step: math.MaxInt64, Seconds: math.Copysign(0, -1)},
		{Seconds: math.NaN(), Prev: strings.Repeat("f", 300)},
		{Seconds: math.Inf(1), State: json.RawMessage(`null`)},
		{Seconds: math.Inf(-1)},
		{Seconds: 1e21},
		{Seconds: 1e-7},
		{Seconds: 5e-324},
		{Seconds: 123456.789},
	} {
		h := sha256.New()
		fmt.Fprintf(h, "v=%d|slot=%d|step=%d|t=%g|prev=%s|", r.V, r.Slot, r.Step, r.Seconds, r.Prev)
		h.Write(r.State)
		if got, want := HashCheckpoint(r), hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("%+v: hash %s, fmt header gives %s", r, got, want)
		}
	}
}

// TestCheckpointStateRoundTrip: a chain whose state holds JSON
// whitespace or HTML characters still validates after the capture
// writes it and ReadCheckpoints reads it back, because the bytes hashed
// are the bytes written.
func TestCheckpointStateRoundTrip(t *testing.T) {
	l := NewCheckpointLog()
	for i, state := range []string{
		`{"a": 1}`,
		"{\n\t\"a\": [1, 2]\r\n}",
		` {"a":1} `,
		`{"s":"<x&y>"}`,
		`{"a":1}`,
	} {
		l.Append(i, 600*i, float64(600*i), json.RawMessage(state))
	}
	c := NewCapture()
	c.Contribute(RunArtifact{Key: "HEB-D|PR|1h0m0s|seed=1", Checkpoints: l.Records()})
	dir := t.TempDir()
	if err := c.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "checkpoints.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := ReadCheckpoints(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 5 {
		t.Fatalf("read %d records, want 5", len(records))
	}
	if err := ValidateCheckpoints(records); err != nil {
		t.Fatalf("written chain does not validate: %v", err)
	}
}
