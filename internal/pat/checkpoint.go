package pat

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"heb/internal/jsonx"
)

// TableState is the flight-recorder snapshot of a PAT: the learned
// entries (with their hit/update counters) plus the lookup statistics.
// The configuration rides along, so chains of differently binned tables
// differ from the first record.
type TableState struct {
	Config  Config  `json:"config"`
	Entries []Entry `json:"entries"`
	Lookups int     `json:"lookups"`
	Misses  int     `json:"misses"`
}

// Checkpoint captures the table's learned state and statistics.
func (t *Table) Checkpoint() TableState {
	lookups, misses := t.Stats()
	return TableState{
		Config:  t.cfg,
		Entries: t.Entries(),
		Lookups: lookups,
		Misses:  misses,
	}
}

// TablePatch is the delta form of TableState: only the entries touched
// since the last checkpoint mark, plus tombstones for evicted keys. Its
// JSON keys mirror TableState's so that a checkpoint chain's keyed-merge
// splice (obs "@mergekey"/"@drop" companions) materializes a patch back
// into a document TableState can unmarshal.
type TablePatch struct {
	Config   Config  `json:"config"`
	Entries  []Entry `json:"entries"`
	MergeKey string  `json:"entries@mergekey"`
	Drop     []Key   `json:"entries@drop,omitempty"`
	Lookups  int     `json:"lookups"`
	Misses   int     `json:"misses"`
}

// CheckpointPatch captures only what changed since the last
// MarkCheckpointed (or Reset). It has no side effects; call
// MarkCheckpointed once the record holding the patch is emitted. The
// table must have TrackChanges enabled — a patch built without tracking
// would silently encode "nothing changed".
func (t *Table) CheckpointPatch() (TablePatch, error) {
	if !t.track {
		return TablePatch{}, fmt.Errorf("pat: CheckpointPatch without TrackChanges")
	}
	p := TablePatch{
		Config:   t.cfg,
		Entries:  make([]Entry, 0, len(t.dirty)),
		MergeKey: "Key",
		Lookups:  t.lookups,
		Misses:   t.misses,
	}
	for k := range t.dirty {
		if e, ok := t.entries[k]; ok {
			p.Entries = append(p.Entries, *e)
		}
	}
	sort.Slice(p.Entries, func(i, j int) bool { return keyLess(p.Entries[i].Key, p.Entries[j].Key) })
	for k := range t.dropped {
		p.Drop = append(p.Drop, k)
	}
	sort.Slice(p.Drop, func(i, j int) bool { return keyLess(p.Drop[i], p.Drop[j]) })
	return p, nil
}

// MarkCheckpointed clears the dirty/dropped tracking: the table's current
// state becomes the baseline the next CheckpointPatch diffs against.
func (t *Table) MarkCheckpointed() {
	clear(t.dirty)
	clear(t.dropped)
}

// AppendCheckpointJSON appends the JSON encoding of Checkpoint() — the
// full TableState — to b, byte-for-byte what json.Marshal produces but
// without reflecting over every entry. Keyframe records re-marshal the
// whole table every cadence, which made the table the dominant marshal
// cost of a checkpointed run.
func (t *Table) AppendCheckpointJSON(b []byte) ([]byte, error) {
	cfgRaw, err := json.Marshal(t.cfg)
	if err != nil {
		return nil, fmt.Errorf("pat: marshal config: %w", err)
	}
	b = append(b, `{"config":`...)
	b = append(b, cfgRaw...)
	b = append(b, `,"entries":[`...)
	// Sort packed keys rather than copying the entries out: the int64
	// slice is a quarter the size of the []Entry that Entries() would
	// build, and slices.Sort on integers beats an interface-based
	// sort.Slice by enough that the sort no longer costs more than the
	// encoding it orders.
	packed := make([]int64, 0, len(t.entries))
	for k := range t.entries {
		v, ok := packKey(k)
		if !ok {
			return t.appendEntriesSlow(b)
		}
		packed = append(packed, v)
	}
	slices.Sort(packed)
	for i, v := range packed {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendEntryJSON(b, *t.entries[unpackKey(v)])
	}
	b = append(b, `],"lookups":`...)
	b = jsonx.AppendInt(b, t.lookups)
	b = append(b, `,"misses":`...)
	b = jsonx.AppendInt(b, t.misses)
	return append(b, '}'), nil
}

// keyPackBias biases each level into 21 non-negative bits so a packed
// key's integer order matches keyLess. Quantized bins live nowhere near
// the ±2^20 range; packKey reports false for a key that somehow does.
const keyPackBias = 1 << 20

func packKey(k Key) (int64, bool) {
	if k.SCLevel < -keyPackBias || k.SCLevel >= keyPackBias ||
		k.BALevel < -keyPackBias || k.BALevel >= keyPackBias ||
		k.PMLevel < -keyPackBias || k.PMLevel >= keyPackBias {
		return 0, false
	}
	return int64(k.SCLevel+keyPackBias)<<42 |
		int64(k.BALevel+keyPackBias)<<21 |
		int64(k.PMLevel+keyPackBias), true
}

func unpackKey(v int64) Key {
	const mask = 1<<21 - 1
	return Key{
		SCLevel: int(v>>42&mask) - keyPackBias,
		BALevel: int(v>>21&mask) - keyPackBias,
		PMLevel: int(v&mask) - keyPackBias,
	}
}

// appendEntriesSlow finishes the entry array for a table whose keys
// overflow the packed form; ordering still matches Entries().
func (t *Table) appendEntriesSlow(b []byte) ([]byte, error) {
	for i, e := range t.Entries() {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendEntryJSON(b, e)
	}
	b = append(b, `],"lookups":`...)
	b = jsonx.AppendInt(b, t.lookups)
	b = append(b, `,"misses":`...)
	b = jsonx.AppendInt(b, t.misses)
	return append(b, '}'), nil
}

// appendEntryJSON appends one Entry in the field order encoding/json
// uses for the untagged struct.
func appendEntryJSON(b []byte, e Entry) []byte {
	b = append(b, `{"Key":{"SCLevel":`...)
	b = jsonx.AppendInt(b, e.Key.SCLevel)
	b = append(b, `,"BALevel":`...)
	b = jsonx.AppendInt(b, e.Key.BALevel)
	b = append(b, `,"PMLevel":`...)
	b = jsonx.AppendInt(b, e.Key.PMLevel)
	b = append(b, `},"Ratio":`...)
	b = jsonx.AppendFloat(b, e.Ratio)
	b = append(b, `,"Hits":`...)
	b = jsonx.AppendInt(b, e.Hits)
	b = append(b, `,"Updates":`...)
	b = jsonx.AppendInt(b, e.Updates)
	return append(b, '}')
}
