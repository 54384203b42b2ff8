package obs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// CheckpointVersion is the schema version stamped into every record;
// readers refuse any other version. Version 4 State is the engine state
// with the metric series and the PAT entries reduced to {len, digest}
// pairs; version 3 carried them whole, or as deltas against the
// previous record.
const CheckpointVersion = 4

// CheckpointRecord is one flight-recorder snapshot: the serialized
// simulation state at a slot boundary, hash-chained to its predecessor so
// a checkpoint file is tamper- and truncation-evident and two runs can be
// bisected by comparing chains. Records are written to checkpoints.jsonl.
//
// The hash covers everything except Run: the run key is stamped late (by
// obs.Capture.Contribute, like events and decisions), so it must not
// participate in the chain.
type CheckpointRecord struct {
	// V is the schema version (CheckpointVersion).
	V int `json:"v"`
	// Run labels the originating run in multi-run artifacts.
	Run string `json:"run,omitempty"`
	// Slot is the number of completed control slots at snapshot time; it
	// is strictly increasing within a run's chain.
	Slot int `json:"slot"`
	// Step is the number of executed engine steps (the snapshot is taken
	// at the slot boundary before step Step executes).
	Step int `json:"step"`
	// Seconds is the simulation time of the snapshot.
	Seconds float64 `json:"t"`
	// State is the serialized engine state (sim.EngineState).
	State json.RawMessage `json:"state"`
	// Delta is always false: ValidateCheckpoints rejects a record that
	// sets it. It remains only because the benchmark module reads it,
	// and goes with the next change to hebbench/.
	Delta bool `json:"delta,omitempty"`
	// Prev is the previous record's Hash ("" for the first record).
	Prev string `json:"prev,omitempty"`
	// Hash chains V, Slot, Step, Seconds, Prev and State.
	Hash string `json:"hash"`
}

// HashCheckpoint computes the record's chain hash from its own fields
// (ignoring the stored Hash and the late-stamped Run label): SHA-256 over
// a header line and the state bytes. The header is what
// fmt's "v=%d|slot=%d|step=%d|t=%g|prev=%s|" prints, built with strconv.
func HashCheckpoint(r CheckpointRecord) string {
	var buf [192]byte
	hdr := append(buf[:0], "v="...)
	hdr = strconv.AppendInt(hdr, int64(r.V), 10)
	hdr = append(hdr, "|slot="...)
	hdr = strconv.AppendInt(hdr, int64(r.Slot), 10)
	hdr = append(hdr, "|step="...)
	hdr = strconv.AppendInt(hdr, int64(r.Step), 10)
	hdr = append(hdr, "|t="...)
	hdr = strconv.AppendFloat(hdr, r.Seconds, 'g', -1, 64)
	hdr = append(hdr, "|prev="...)
	hdr = append(hdr, r.Prev...)
	hdr = append(hdr, '|')
	h := sha256.New()
	h.Write(hdr)
	h.Write(r.State)
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// CheckpointLog accumulates one run's hash-chained checkpoint records.
// Safe for concurrent use (each run owns its own log, but a shared sink
// may flush while the engine appends).
type CheckpointLog struct {
	mu      sync.Mutex
	records []CheckpointRecord
	prev    string
}

// NewCheckpointLog builds an empty log.
func NewCheckpointLog() *CheckpointLog { return &CheckpointLog{} }

// Append chains and stores one snapshot, returning the finished record.
// It copies state once: the engine encodes every checkpoint into one
// buffer it reuses. The writers copy State verbatim, so a state holding
// JSON whitespace (space, tab, CR or LF) is compacted before it is
// hashed, keeping the chain valid when it is read back; compact state,
// as json.Marshal and the engine's appenders write it, is only copied.
// State is not validated: invalid JSON fails when the chain is read, not
// when it is written.
func (l *CheckpointLog) Append(slot, step int, seconds float64, state json.RawMessage) CheckpointRecord {
	rec := CheckpointRecord{
		V:       CheckpointVersion,
		Slot:    slot,
		Step:    step,
		Seconds: seconds,
		State:   chainState(state),
	}
	l.mu.Lock()
	rec.Prev = l.prev
	rec.Hash = HashCheckpoint(rec)
	l.prev = rec.Hash
	l.records = append(l.records, rec)
	l.mu.Unlock()
	return rec
}

// chainState copies state, compacted when it holds JSON whitespace and
// is valid JSON.
func chainState(state json.RawMessage) json.RawMessage {
	// One IndexByte scan per whitespace byte is ten times faster than
	// bytes.ContainsAny on a 3.5 KB engine state.
	for _, c := range []byte(" \t\r\n") {
		if bytes.IndexByte(state, c) < 0 {
			continue
		}
		var b bytes.Buffer
		if json.Compact(&b, state) == nil {
			return b.Bytes()
		}
		break
	}
	return append(json.RawMessage(nil), state...)
}

// Records returns a copy of the stored records in chain order.
func (l *CheckpointLog) Records() []CheckpointRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]CheckpointRecord(nil), l.records...)
}

// ReadCheckpoints parses a checkpoints.jsonl stream. It reads the stream
// once and parses each line on the layout CheckpointRecord.appendJSON
// writes, without reflection; the records' State slices share the read
// buffer, each capped at its own end. The first line off that layout
// (whitespace, reordered, unknown or escaped keys and strings, a
// non-object state, a number outside its field's type, a missing final
// newline) sends the whole stream through ReadJSONL[CheckpointRecord],
// so every input gets exactly the records and the error that reader
// gives it. FuzzReadCheckpoints holds the two paths equal.
func ReadCheckpoints(r io.Reader) ([]CheckpointRecord, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	if err == nil {
		if recs, ok := parseCheckpoints(buf.Bytes()); ok {
			return recs, nil
		}
	}
	rest := io.Reader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		// The reader failed after buf: the JSONL reader meets the same
		// error where it would have.
		rest = io.MultiReader(rest, errReader{err})
	}
	return ReadJSONL[CheckpointRecord](rest)
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// parseCheckpoints parses every line of b on the written layout,
// reporting false at the first line off it. An empty b holds no records.
func parseCheckpoints(b []byte) ([]CheckpointRecord, bool) {
	if len(b) == 0 {
		return nil, true
	}
	recs := make([]CheckpointRecord, 0, bytes.Count(b, []byte{'\n'}))
	for len(b) > 0 {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			return nil, false
		}
		p := ckptLine{rest: b[:i], ok: true}
		rec, ok := p.record()
		if !ok {
			return nil, false
		}
		recs = append(recs, rec)
		b = b[i+1:]
	}
	return recs, true
}

// ckptLine parses one checkpoint line. The fixed fields are read from
// the front and the optional tail (delta, prev) and the hash from the
// back; what lies between is the state, accepted only as one valid JSON
// object. Each part being valid in its place makes the whole line a
// JSON object with exactly these keys, so encoding/json reads it the
// same way.
type ckptLine struct {
	rest []byte
	ok   bool
}

func (p *ckptLine) record() (CheckpointRecord, bool) {
	var r CheckpointRecord
	p.lit(`{"v":`)
	r.V = p.int()
	if bytes.HasPrefix(p.rest, []byte(`,"run":`)) {
		p.lit(`,"run":`)
		r.Run = p.str()
	}
	p.lit(`,"slot":`)
	r.Slot = p.int()
	p.lit(`,"step":`)
	r.Step = p.int()
	p.lit(`,"t":`)
	r.Seconds = p.float()
	p.lit(`,"state":`)
	p.litEnd(`"}`)
	r.Hash = p.strEnd()
	p.litEnd(`,"hash":`)
	if bytes.HasSuffix(p.rest, []byte(`"`)) {
		p.litEnd(`"`)
		r.Prev = p.strEnd()
		p.litEnd(`,"prev":`)
	}
	if bytes.HasSuffix(p.rest, []byte(`,"delta":true`)) {
		p.litEnd(`,"delta":true`)
		r.Delta = true
	}
	if !p.ok || !checkpointState(p.rest) {
		return CheckpointRecord{}, false
	}
	r.State = p.rest[:len(p.rest):len(p.rest)]
	return r, true
}

// checkpointState reports whether s is one JSON object with no
// surrounding whitespace that stays within encoding/json's nesting limit
// of 10000 once it sits inside a record: a state of n bytes nests at
// most n/2 deep, so only a long one has its brackets counted.
func checkpointState(s []byte) bool {
	const maxDepth = 10000 - 1
	if len(s) < 2 || s[0] != '{' || s[len(s)-1] != '}' || !json.Valid(s) {
		return false
	}
	return len(s) < 2*maxDepth || bytes.Count(s, []byte{'{'})+bytes.Count(s, []byte{'['}) <= maxDepth
}

// lit consumes the literal s from the front.
func (p *ckptLine) lit(s string) {
	if p.ok = p.ok && bytes.HasPrefix(p.rest, []byte(s)); p.ok {
		p.rest = p.rest[len(s):]
	}
}

// litEnd consumes the literal s from the back.
func (p *ckptLine) litEnd(s string) {
	if p.ok = p.ok && bytes.HasSuffix(p.rest, []byte(s)); p.ok {
		p.rest = p.rest[:len(p.rest)-len(s)]
	}
}

// number consumes a JSON number from the front.
func (p *ckptLine) number() []byte {
	b := p.rest
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		p.ok = false
		return nil
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		p.ok = p.ok && j > i+1
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		p.ok = p.ok && j > i
		i = j
	}
	p.rest = b[i:]
	return b[:i]
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// int consumes a JSON integer that fits an int; ParseInt refuses a
// fraction or an exponent, as encoding/json does for an int field.
func (p *ckptLine) int() int {
	lit := p.number()
	if !p.ok {
		return 0
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	p.ok = err == nil
	return int(n)
}

// float consumes a JSON number that fits a float64.
func (p *ckptLine) float() float64 {
	lit := p.number()
	if !p.ok {
		return 0
	}
	x, err := strconv.ParseFloat(string(lit), 64)
	p.ok = err == nil
	return x
}

// plain reports whether s is printable ASCII without a quote or a
// backslash: a JSON string body that decodes to itself.
func plain(s []byte) bool {
	for _, c := range s {
		if c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// str consumes a quoted plain string from the front.
func (p *ckptLine) str() string {
	p.lit(`"`)
	i := bytes.IndexByte(p.rest, '"')
	if !p.ok || i < 0 || !plain(p.rest[:i]) {
		p.ok = false
		return ""
	}
	s := string(p.rest[:i])
	p.rest = p.rest[i+1:]
	return s
}

// strEnd consumes a plain string body whose closing quote the caller
// has consumed, and its opening quote, from the back.
func (p *ckptLine) strEnd() string {
	i := bytes.LastIndexByte(p.rest, '"')
	if !p.ok || i < 0 || !plain(p.rest[i+1:]) {
		p.ok = false
		return ""
	}
	s := string(p.rest[i+1:])
	p.rest = p.rest[:i]
	return s
}

// ValidateCheckpoints checks a checkpoint stream's structural invariants,
// per run label: known schema version, no delta records, strictly
// increasing slot index, intact prev links and recomputable hashes.
// Records of different runs may interleave arbitrarily (a multi-run
// capture concatenates sorted runs).
func ValidateCheckpoints(records []CheckpointRecord) error {
	type chainState struct {
		prev     string
		lastSlot int
		started  bool
	}
	chains := make(map[string]*chainState)
	for i, r := range records {
		if r.V != CheckpointVersion {
			return fmt.Errorf("obs: checkpoint %d: unknown schema version %d (want %d; re-record the run to upgrade its chain)", i, r.V, CheckpointVersion)
		}
		if r.Delta {
			return fmt.Errorf("obs: checkpoint %d (slot %d): delta records are not supported", i, r.Slot)
		}
		c := chains[r.Run]
		if c == nil {
			c = &chainState{}
			chains[r.Run] = c
		}
		if c.started && r.Slot <= c.lastSlot {
			return fmt.Errorf("obs: checkpoint %d: slot %d not above previous slot %d", i, r.Slot, c.lastSlot)
		}
		if r.Prev != c.prev {
			return fmt.Errorf("obs: checkpoint %d (slot %d): broken chain: prev %.12s != expected %.12s", i, r.Slot, r.Prev, c.prev)
		}
		if got := HashCheckpoint(r); got != r.Hash {
			return fmt.Errorf("obs: checkpoint %d (slot %d): hash mismatch: stored %.12s, computed %.12s", i, r.Slot, r.Hash, got)
		}
		c.prev = r.Hash
		c.lastSlot = r.Slot
		c.started = true
	}
	return nil
}

// MaterializeAt returns the state of records[i]. Every record stores
// its state whole, so this is a bounds-checked index. It remains only
// because the benchmark module calls it, and goes with the next change to
// hebbench/.
func MaterializeAt(records []CheckpointRecord, i int) (json.RawMessage, error) {
	if i < 0 || i >= len(records) {
		return nil, fmt.Errorf("obs: materialize checkpoint %d of %d", i, len(records))
	}
	return records[i].State, nil
}
