package obs

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"
	"sync"
)

// CheckpointVersion is the schema version stamped into every record;
// readers refuse any other version. Records are either full keyframes or
// deltas: a delta's State may carry only the suffix grown since the
// previous record for append-only series (paired "<key>@base" fields
// hold the splice offsets) and only the changed elements of keyed
// collections (paired "<key>@mergekey" fields name the identity field,
// "<key>@drop" lists removed identities), with a full keyframe every
// DefaultKeyframeEvery records. Version 3 State is the engine state
// alone; version 2 also carried the run's event log, decision trace and
// probe rings.
const CheckpointVersion = 3

// DefaultKeyframeEvery is the keyframe cadence for delta-encoded chains:
// record indices divisible by it carry full state, so any record
// materializes by scanning back at most DefaultKeyframeEvery-1 records —
// seeking stays O(1) in the chain length.
const DefaultKeyframeEvery = 8

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
	// State is the serialized engine state (sim.EngineState). In a delta
	// record, append-only series inside it carry only their suffix beyond
	// the previous record, tagged by "<key>@base" offsets; MaterializeAt
	// reconstructs the full state.
	State json.RawMessage `json:"state"`
	// Delta marks a record whose State is encoded against the previous
	// record of the same run. The first record of a chain is never a delta.
	Delta bool `json:"delta,omitempty"`
	// Prev is the previous record's Hash ("" for the first record).
	Prev string `json:"prev,omitempty"`
	// Hash chains V, Slot, Step, Seconds, Delta, Prev and State.
	Hash string `json:"hash"`
}

// crc32c is the Castagnoli table, hardware-accelerated on amd64/arm64.
var crc32c = crc32.MakeTable(crc32.Castagnoli)

// HashCheckpoint computes the record's chain hash from its own fields
// (ignoring the stored Hash and the late-stamped Run label). The state
// payload contributes through its length and a CRC-32C digest rather
// than being fed through SHA-256 whole: the chain hash still pins
// ordering and every payload byte, but the emission path pays a hardware
// CRC over the record instead of a full cryptographic hash — about a
// tenth of the cost on the slot boundary.
func HashCheckpoint(r CheckpointRecord) string {
	h := sha256.New()
	fmt.Fprintf(h, "v=%d|slot=%d|step=%d|t=%g|delta=%t|prev=%s|len=%d|crc=%08x",
		r.V, r.Slot, r.Step, r.Seconds, r.Delta, r.Prev, len(r.State), crc32.Checksum(r.State, crc32c))
	return hex.EncodeToString(h.Sum(nil))
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
// may reuse its buffer), returning the finished record. delta marks the
// state as encoded against the previous record; it must be false when
// the log is empty (a chain's first record is a keyframe).
func (l *CheckpointLog) Append(slot, step int, seconds float64, state json.RawMessage, delta bool) CheckpointRecord {
	rec := CheckpointRecord{
		V:       CheckpointVersion,
		Slot:    slot,
		Step:    step,
		Seconds: seconds,
		State:   append(json.RawMessage(nil), state...),
		Delta:   delta,
	}
	l.mu.Lock()
	rec.Prev = l.prev
	rec.Hash = HashCheckpoint(rec)
	l.prev = rec.Hash
	l.records = append(l.records, rec)
	l.mu.Unlock()
	return rec
}

// NextIsDelta reports whether the log's next append should be a delta
// under the keyframe cadence: every record whose chain index is divisible
// by every is a keyframe, everything between is a delta. The cadence is a
// function of chain position alone, so every run of a configuration
// produces the same sequence.
func (l *CheckpointLog) NextIsDelta(every int) bool {
	if every <= 1 {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)%every != 0
}

// Records returns a copy of the stored records in chain order.
func (l *CheckpointLog) Records() []CheckpointRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]CheckpointRecord(nil), l.records...)
}

// WriteCheckpointsJSONL writes records one JSON object per line.
func WriteCheckpointsJSONL(w io.Writer, records []CheckpointRecord) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range records {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("obs: write checkpoints: %w", err)
		}
	}
	return bw.Flush()
}

// ReadCheckpoints parses a JSONL stream written by WriteCheckpointsJSONL.
func ReadCheckpoints(r io.Reader) ([]CheckpointRecord, error) {
	var out []CheckpointRecord
	dec := json.NewDecoder(r)
	for {
		var rec CheckpointRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return out, fmt.Errorf("obs: read checkpoints: %w", err)
		}
		out = append(out, rec)
	}
}

// ValidateCheckpoints checks a checkpoint stream's structural invariants,
// per run label: known schema version, strictly increasing slot index,
// intact prev links and recomputable hashes. Records of different runs may
// interleave arbitrarily (a multi-run capture concatenates sorted runs).
func ValidateCheckpoints(records []CheckpointRecord) error {
	type chainState struct {
		prev     string
		lastSlot int
		started  bool
	}
	chains := make(map[string]*chainState)
	for i, r := range records {
		if r.V != CheckpointVersion {
			return fmt.Errorf("obs: checkpoint %d: unknown schema version %d (want %d)", i, r.V, CheckpointVersion)
		}
		c := chains[r.Run]
		if c == nil {
			c = &chainState{}
			chains[r.Run] = c
		}
		if r.Delta && !c.started {
			return fmt.Errorf("obs: checkpoint %d: delta record opens run %q chain (first record must be a keyframe)", i, r.Run)
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

// MaterializeAt returns the full simulation state of records[i],
// reconstructing delta records by splicing them onto the nearest preceding
// keyframe of the same run. The scan walks back at most the keyframe
// cadence, so a seek costs O(keyframe distance) records regardless of
// chain length. A keyframe's state is returned as stored (byte-identical);
// a delta's is re-marshaled from the spliced document.
func MaterializeAt(records []CheckpointRecord, i int) (json.RawMessage, error) {
	if i < 0 || i >= len(records) {
		return nil, fmt.Errorf("obs: materialize checkpoint %d of %d", i, len(records))
	}
	if !records[i].Delta {
		return records[i].State, nil
	}
	run := records[i].Run
	// Collect the delta chain back to its keyframe, same-run records only.
	var chain []int
	key := -1
	for j := i; j >= 0; j-- {
		if records[j].Run != run {
			continue
		}
		if !records[j].Delta {
			key = j
			break
		}
		chain = append(chain, j)
	}
	if key < 0 {
		return nil, fmt.Errorf("obs: checkpoint %d (run %q): delta chain has no keyframe", i, run)
	}
	var state map[string]any
	if err := json.Unmarshal(records[key].State, &state); err != nil {
		return nil, fmt.Errorf("obs: checkpoint %d: decode keyframe state: %w", key, err)
	}
	for j := len(chain) - 1; j >= 0; j-- {
		var delta map[string]any
		if err := json.Unmarshal(records[chain[j]].State, &delta); err != nil {
			return nil, fmt.Errorf("obs: checkpoint %d: decode delta state: %w", chain[j], err)
		}
		spliced, err := spliceCheckpointDelta(state, delta)
		if err != nil {
			return nil, fmt.Errorf("obs: checkpoint %d: %w", chain[j], err)
		}
		state = spliced
	}
	out, err := json.Marshal(state)
	if err != nil {
		return nil, fmt.Errorf("obs: checkpoint %d: re-marshal state: %w", i, err)
	}
	return out, nil
}

// Delta-encoding companion suffixes. A key "<key>@base": N marks an
// append-only series: the materialized <key> is the previous state's
// first N elements followed by the delta's <key> value. A key
// "<key>@mergekey": "<field>" marks a keyed collection: the delta's
// <key> array carries only changed elements, identified by <field>, and
// an optional "<key>@drop": [...] lists the identities removed since the
// previous record.
const (
	deltaBaseSuffix  = "@base"
	deltaMergeSuffix = "@mergekey"
	deltaDropSuffix  = "@drop"
)

// isDeltaCompanion reports whether k is a companion key consumed
// alongside its primary key rather than materialized itself.
func isDeltaCompanion(k string) bool {
	return strings.HasSuffix(k, deltaBaseSuffix) ||
		strings.HasSuffix(k, deltaMergeSuffix) ||
		strings.HasSuffix(k, deltaDropSuffix)
}

// spliceCheckpointDelta materializes one delta document against the
// previous materialized state. The encoding is self-describing: a key
// carrying a "<key>@base" companion splices onto the previous array; a
// key carrying "<key>@mergekey" upserts into the previous array by
// element identity (dropping the "<key>@drop" identities first); nested
// objects recurse; every other key replaces the previous value
// wholesale, and keys absent from the delta are dropped.
func spliceCheckpointDelta(prev, delta map[string]any) (map[string]any, error) {
	out := make(map[string]any, len(delta))
	for k, v := range delta {
		if isDeltaCompanion(k) {
			continue // companion, consumed with its primary key
		}
		if mkAny, ok := delta[k+deltaMergeSuffix]; ok {
			merged, err := spliceKeyedMerge(k, prev[k], v, mkAny, delta[k+deltaDropSuffix])
			if err != nil {
				return nil, err
			}
			out[k] = merged
			continue
		}
		if baseAny, ok := delta[k+deltaBaseSuffix]; ok {
			baseF, ok := baseAny.(float64)
			if !ok || baseF < 0 || baseF != math.Trunc(baseF) {
				return nil, fmt.Errorf("splice %q: offset %v is not a non-negative integer", k, baseAny)
			}
			var prevArr []any
			if pa, ok := prev[k].([]any); ok {
				prevArr = pa
			}
			if baseF > float64(len(prevArr)) {
				return nil, fmt.Errorf("splice %q: offset %v beyond previous length %d", k, baseAny, len(prevArr))
			}
			base := int(baseF)
			suffix, ok := v.([]any)
			if !ok && v != nil {
				return nil, fmt.Errorf("splice %q: delta value is not an array", k)
			}
			merged := make([]any, 0, base+len(suffix))
			merged = append(merged, prevArr[:base]...)
			merged = append(merged, suffix...)
			out[k] = merged
			continue
		}
		if dm, ok := v.(map[string]any); ok {
			pm, _ := prev[k].(map[string]any)
			spliced, err := spliceCheckpointDelta(pm, dm)
			if err != nil {
				return nil, fmt.Errorf("%q.%w", k, err)
			}
			out[k] = spliced
			continue
		}
		out[k] = v
	}
	return out, nil
}

// spliceKeyedMerge materializes a keyed-collection delta: starting from
// the previous array with the dropped identities removed (order
// preserved), each delta element replaces the previous element of the
// same identity in place, or appends if its identity is new. Identity is
// the JSON encoding of the element's merge-key field, so struct-valued
// keys compare correctly.
func spliceKeyedMerge(k string, prevVal, deltaVal, mergeKey, dropVal any) ([]any, error) {
	field, ok := mergeKey.(string)
	if !ok || field == "" {
		return nil, fmt.Errorf("splice %q: merge key %v is not a non-empty string", k, mergeKey)
	}
	ident := func(el any) (string, error) {
		obj, ok := el.(map[string]any)
		if !ok {
			return "", fmt.Errorf("splice %q: element %v is not an object", k, el)
		}
		enc, err := json.Marshal(obj[field])
		if err != nil {
			return "", fmt.Errorf("splice %q: encode merge key: %w", k, err)
		}
		return string(enc), nil
	}
	dropSet := map[string]bool{}
	if dropVal != nil {
		drops, ok := dropVal.([]any)
		if !ok {
			return nil, fmt.Errorf("splice %q: drop list %v is not an array", k, dropVal)
		}
		for _, d := range drops {
			enc, err := json.Marshal(d)
			if err != nil {
				return nil, fmt.Errorf("splice %q: encode drop key: %w", k, err)
			}
			dropSet[string(enc)] = true
		}
	}
	var prevArr []any
	if pa, ok := prevVal.([]any); ok {
		prevArr = pa
	}
	upserts, ok := deltaVal.([]any)
	if !ok && deltaVal != nil {
		return nil, fmt.Errorf("splice %q: delta value is not an array", k)
	}
	merged := make([]any, 0, len(prevArr)+len(upserts))
	index := make(map[string]int, len(prevArr))
	for _, el := range prevArr {
		id, err := ident(el)
		if err != nil {
			return nil, err
		}
		if dropSet[id] {
			continue
		}
		index[id] = len(merged)
		merged = append(merged, el)
	}
	for _, el := range upserts {
		id, err := ident(el)
		if err != nil {
			return nil, err
		}
		if pos, ok := index[id]; ok {
			merged[pos] = el
			continue
		}
		index[id] = len(merged)
		merged = append(merged, el)
	}
	return merged, nil
}
