package pat

import (
	"math"

	"heb/internal/jsonenc"
)

// TableState is the flight-recorder snapshot of a PAT: the configuration,
// a digest of the learned entries (with their hit/update counters) and
// the lookup statistics. The configuration rides along in full, so chains
// of differently binned tables differ from the first record.
type TableState struct {
	Config  Config `json:"config"`
	Entries Digest `json:"entries"`
	Lookups int    `json:"lookups"`
	Misses  int    `json:"misses"`
}

// Digest stands in, inside a checkpoint, for a collection whose size
// grows with run length or table size — the PAT's entries and the
// engine's metric series. Two runs whose collections differ in any
// element get different digests with overwhelming probability, so a
// chain still pins the collection without storing it.
type Digest struct {
	Len int    `json:"len"`
	Sum uint64 `json:"digest,string"`
}

// AppendJSON writes the state as json.Marshal does.
func (s *TableState) AppendJSON(o *jsonenc.Object) {
	o.Key(`{"config":`)
	s.Config.AppendJSON(o)
	o.Key(`,"entries":`)
	s.Entries.AppendJSON(o)
	o.Int(`,"lookups":`, s.Lookups)
	o.Int(`,"misses":`, s.Misses)
	o.Close()
}

// AppendJSON writes the configuration as json.Marshal does.
func (c *Config) AppendJSON(o *jsonenc.Object) {
	o.Int(`{"LevelBins":`, c.LevelBins)
	o.Float(`,"PMBinWatts":`, c.PMBinWatts)
	o.Float(`,"DeltaR":`, c.DeltaR)
	o.Int(`,"MaxEntries":`, c.MaxEntries)
	o.Close()
}

// AppendJSON writes the digest as json.Marshal does, Sum quoted.
func (d *Digest) AppendJSON(o *jsonenc.Object) {
	o.Int(`{"len":`, d.Len)
	o.QuotedUint64(`,"digest":`, d.Sum)
	o.Close()
}

// Fold appends one 64-bit word to a running sequence digest.
func (d *Digest) Fold(x uint64) {
	d.Len++
	d.Sum = mix(d.Sum ^ x)
}

// mix is the splitmix64 finalizer: a bijection on 64-bit words, so
// folding one differing word always yields a differing state.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// Checkpoint captures the table's learned state and statistics.
func (t *Table) Checkpoint() TableState {
	lookups, misses := t.Stats()
	return TableState{
		Config:  t.cfg,
		Entries: t.Digest(),
		Lookups: lookups,
		Misses:  misses,
	}
}

// Digest summarizes the entries without sorting or allocating: the sum of
// one sequence digest per entry over its key, ratio bits and counters.
// Addition commutes, so the result does not depend on where an entry is
// stored or in which order the entries are visited.
func (t *Table) Digest() Digest {
	d := Digest{Len: t.Len()}
	t.each(func(e *Entry) {
		var h Digest
		h.Fold(uint64(e.Key.SCLevel))
		h.Fold(uint64(e.Key.BALevel))
		h.Fold(uint64(e.Key.PMLevel))
		h.Fold(math.Float64bits(e.Ratio))
		h.Fold(uint64(e.Hits))
		h.Fold(uint64(e.Updates))
		d.Sum += h.Sum
	})
	return d
}
