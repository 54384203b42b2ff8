package obs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
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

// TestReadCheckpointsLayout: a written multi-run chain (a first record
// without prev, a delta record, float times, a state string that holds
// `"},"hash":"`) is
// read on its layout, with each State capped at its own end, and each
// input off the layout goes to ReadJSONL whole and reads as it does
// there. FuzzReadCheckpoints holds the two paths equal on any input;
// this holds the layout path to being taken at all.
func TestReadCheckpointsLayout(t *testing.T) {
	var recs []CheckpointRecord
	for _, run := range []string{"HEB-D|PR|2h0m0s|seed=1", "BaOnly|PR|2h0m0s|seed=1"} {
		l := NewCheckpointLog()
		l.Append(1, 600, 600.5, json.RawMessage(`{"steps":600,"s":"a\"},\"hash\":\"b"}`))
		l.Append(2, 1200, 1e-7, json.RawMessage(`{"steps":1200,"pat":{"entries":{"len":3,"digest":"42"}}}`))
		for _, r := range l.Records() {
			r.Run = run
			recs = append(recs, r)
		}
	}
	recs[3].Delta = true
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, recs); err != nil {
		t.Fatal(err)
	}
	written := buf.String()
	got, ok := parseCheckpoints([]byte(written))
	if !ok {
		t.Fatal("a written chain left the layout path")
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("layout path read\n %+v\nwant\n %+v", got, recs)
	}
	for i, r := range got {
		if cap(r.State) != len(r.State) {
			t.Errorf("record %d: State has spare capacity %d", i, cap(r.State)-len(r.State))
		}
	}
	first, _, _ := strings.Cut(written, "\n")
	for name, in := range map[string]string{
		"crlf":           strings.ReplaceAll(written, "\n", "\r\n"),
		"blank line":     first + "\n\n",
		"space":          strings.Replace(written, `"slot":1`, `"slot": 1`, 1),
		"reordered keys": strings.Replace(first, `"v":4,"run":"HEB-D|PR|2h0m0s|seed=1"`, `"run":"HEB-D|PR|2h0m0s|seed=1","v":4`, 1) + "\n",
		"unknown key":    strings.Replace(first, `"slot":1`, `"x":0,"slot":1`, 1) + "\n",
		"escaped run":    strings.Replace(first, "HEB-D|PR", `HEB-D\u003cPR`, 1) + "\n",
		"exponent slot":  strings.Replace(first, `"slot":1`, `"slot":1e0`, 1) + "\n",
		"leading zero":   strings.Replace(first, `"slot":1`, `"slot":01`, 1) + "\n",
		"null state":     `{"v":4,"slot":1,"step":1,"t":1,"state":null,"hash":"x"}` + "\n",
		"delta false":    strings.Replace(first, `,"hash"`, `,"delta":false,"hash"`, 1) + "\n",
		"no newline":     first,
		"trailing bytes": written + "x",
		"int overflow":   strings.Replace(first, `"slot":1`, `"slot":9223372036854775808`, 1) + "\n",
		"float overflow": strings.Replace(first, `"t":600.5`, `"t":1e999`, 1) + "\n",
		"invalid state":  strings.Replace(first, `{"steps":600`, `{"steps":600,`, 1) + "\n",
	} {
		if _, ok := parseCheckpoints([]byte(in)); ok {
			t.Errorf("%s: read on the layout path", name)
		}
		sameAsJSONL(t, name, in)
	}
	// encoding/json refuses nesting past 10000 levels; a record adds one
	// to its state's, so the deepest state the layout path takes is 9999.
	for depth, layout := range map[int]bool{9999: true, 10000: false} {
		state := strings.Repeat(`{"a":`, depth-1) + "{}" + strings.Repeat("}", depth-1)
		in := `{"v":4,"slot":1,"step":1,"t":1,"state":` + state + `,"hash":"x"}` + "\n"
		if _, ok := parseCheckpoints([]byte(in)); ok != layout {
			t.Errorf("state nested %d deep: layout path %v, want %v", depth, ok, layout)
		}
		sameAsJSONL(t, fmt.Sprintf("state nested %d deep", depth), in)
	}
}

// sameAsJSONL requires ReadCheckpoints to read in as ReadJSONL does.
func sameAsJSONL(t *testing.T, name, in string) {
	t.Helper()
	got, err := ReadCheckpoints(strings.NewReader(in))
	want, werr := ReadJSONL[CheckpointRecord](strings.NewReader(in))
	if (err != nil) != (werr != nil) || !reflect.DeepEqual(got, want) {
		t.Errorf("%s: read %d records (error %v), ReadJSONL %d (error %v)", name, len(got), err, len(want), werr)
	}
}
