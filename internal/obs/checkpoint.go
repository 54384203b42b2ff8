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

// Append chains and stores one snapshot (copying state, so the caller
// may reuse its buffer), returning the finished record. The writers copy
// State verbatim, so a state holding JSON whitespace (space, tab, CR or
// LF) is compacted before it is hashed, keeping the chain valid when it
// is read back; compact state, as json.Marshal writes it, is only
// copied. State is not validated: invalid JSON fails when the chain is
// read, not when it is written.
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

// ReadCheckpoints parses a checkpoints.jsonl stream.
func ReadCheckpoints(r io.Reader) ([]CheckpointRecord, error) { return ReadJSONL[CheckpointRecord](r) }

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
