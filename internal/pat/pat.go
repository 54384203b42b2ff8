// Package pat implements the Power Allocation Table of the HEB controller
// (paper Section 5.2-5.3, Figure 10). The table maps a coarse-grained
// operating point — available super-capacitor energy, available battery
// energy, and predicted power mismatch ΔPM — to the server ratio R_λ that
// should be powered by super-capacitors during a large peak.
//
// Entries are seeded by profiling (a pilot run like the paper's Figure 6
// sweep), then maintained online: unknown operating points fall back to
// the most similar known entry; after each slot the controller either adds
// a new entry or nudges the stored ratio by ±Δr according to which pool
// drained faster than expected (Figure 10 lines 12-23).
//
// Storage is a dense grid over the quantized key space the profiling
// seeds (see Reserve) plus an overflow path for keys outside it, so the
// common lookup is an index computation and a Reset is a mask clear.
// A pooled table is restored from a copy of its seeded image (CopyFrom)
// instead of being profiled again.
package pat

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"

	"heb/internal/units"
)

// Key is the quantized operating point of a table entry.
type Key struct {
	// SCLevel and BALevel are the quantized available-energy fractions
	// of the super-capacitor and battery pools, in quantization bins.
	SCLevel, BALevel int
	// PMLevel is the quantized power mismatch bin.
	PMLevel int
}

// Entry is one row of the table.
type Entry struct {
	Key Key
	// Ratio is R_λ, the fraction of overloaded servers assigned to the
	// super-capacitor pool, in [0,1].
	Ratio float64
	// Hits counts lookups that landed on this entry (diagnostics).
	Hits int
	// Updates counts ±Δr adjustments applied (diagnostics).
	Updates int
}

// Config tunes the table's quantization and learning.
type Config struct {
	// LevelBins quantizes the pool energy fractions: fraction f lands
	// in bin floor(f·LevelBins), so e.g. 10 gives 10% resolution.
	LevelBins int
	// PMBinWatts quantizes the power mismatch in watts per bin.
	PMBinWatts float64
	// DeltaR is the ±Δr learning step (paper default 1%).
	DeltaR float64
	// MaxEntries bounds the table ("the number of entries in PAT is
	// limited"); when full, the least-hit entry is evicted.
	MaxEntries int
}

// DefaultConfig returns the paper-faithful defaults.
func DefaultConfig() Config {
	return Config{LevelBins: 10, PMBinWatts: 20, DeltaR: 0.01, MaxEntries: 4096}
}

// Validate reports the first invalid field.
func (c Config) Validate() error {
	switch {
	case c.LevelBins <= 0:
		return fmt.Errorf("pat: level bins %d must be positive", c.LevelBins)
	case c.PMBinWatts <= 0:
		return fmt.Errorf("pat: PM bin %g watts must be positive", c.PMBinWatts)
	case c.DeltaR <= 0 || c.DeltaR >= 1:
		return fmt.Errorf("pat: delta-r %g must be in (0,1)", c.DeltaR)
	case c.MaxEntries <= 0:
		return fmt.Errorf("pat: max entries %d must be positive", c.MaxEntries)
	}
	return nil
}

// maxGridCells caps the dense grid Reserve builds. Past it the table
// keeps every entry on the overflow path: correct, only slower.
const maxGridCells = 1 << 16

// Table is the power allocation table. It is not safe for concurrent use;
// the controller owns it from a single goroutine.
//
// Entries live in a dense grid indexed by (SC level, BA level, PM level),
// spanning every SC and BA level and the PM levels [0, gridPM) that
// Reserve sized it for; present marks which cells hold an entry. Keys
// outside the grid (a mismatch above the profiled range, or any key of a
// table that was never reserved) take the overflow path, a slice indexed
// by key.
type Table struct {
	cfg Config

	grid    []Entry
	present []uint64
	gridPM  int
	gridLen int

	overflow   []Entry
	overflowAt map[Key]int

	lookups, misses int
}

// New builds an empty table.
func New(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Table{cfg: cfg, overflowAt: make(map[Key]int)}, nil
}

// MustNew is New for known-good configs.
func MustNew(cfg Config) *Table {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the table's configuration.
func (t *Table) Config() Config { return t.cfg }

// Len returns the number of entries.
func (t *Table) Len() int { return t.gridLen + len(t.overflow) }

// Reserve sizes the dense grid to cover PM levels [0, pmLevels) at every
// SC and BA level, moving existing entries into it. Profiling calls it
// with the range it seeds, so seeded operating points skip the overflow
// path. It never shrinks the grid, and it leaves the table's contents
// and counters as they were.
func (t *Table) Reserve(pmLevels int) {
	bins := t.cfg.LevelBins
	if pmLevels <= t.gridPM || bins > maxGridCells || pmLevels > maxGridCells/(bins*bins) {
		return
	}
	entries := t.Entries()
	cells := bins * bins * pmLevels
	t.grid = make([]Entry, cells)
	t.present = make([]uint64, (cells+63)/64)
	t.gridPM, t.gridLen = pmLevels, 0
	t.overflow = t.overflow[:0]
	clear(t.overflowAt)
	for _, e := range entries {
		*t.insert(e.Key) = e
	}
}

// cell returns k's grid index, or false when k lies outside the grid.
// Grid indices ascend in key order.
func (t *Table) cell(k Key) (int, bool) {
	bins := t.cfg.LevelBins
	if k.SCLevel < 0 || k.SCLevel >= bins || k.BALevel < 0 || k.BALevel >= bins ||
		k.PMLevel < 0 || k.PMLevel >= t.gridPM {
		return 0, false
	}
	return (k.SCLevel*bins+k.BALevel)*t.gridPM + k.PMLevel, true
}

func (t *Table) has(i int) bool { return t.present[i>>6]&(1<<(i&63)) != 0 }

// find returns the entry stored under k, or nil.
func (t *Table) find(k Key) *Entry {
	if i, ok := t.cell(k); ok {
		if t.has(i) {
			return &t.grid[i]
		}
		return nil
	}
	if i, ok := t.overflowAt[k]; ok {
		return &t.overflow[i]
	}
	return nil
}

// insert makes room for a new entry under k, which must be absent, and
// returns it for the caller to fill.
func (t *Table) insert(k Key) *Entry {
	if i, ok := t.cell(k); ok {
		t.present[i>>6] |= 1 << (i & 63)
		t.gridLen++
		return &t.grid[i]
	}
	t.overflowAt[k] = len(t.overflow)
	t.overflow = append(t.overflow, Entry{})
	return &t.overflow[len(t.overflow)-1]
}

// remove deletes the entry under k, which must be present.
func (t *Table) remove(k Key) {
	if i, ok := t.cell(k); ok {
		t.present[i>>6] &^= 1 << (i & 63)
		t.gridLen--
		return
	}
	i := t.overflowAt[k]
	last := len(t.overflow) - 1
	if i != last {
		t.overflow[i] = t.overflow[last]
		t.overflowAt[t.overflow[i].Key] = i
	}
	t.overflow = t.overflow[:last]
	delete(t.overflowAt, k)
}

// each calls f on every entry, grid cells first in key order, then the
// overflow entries in no particular order.
func (t *Table) each(f func(e *Entry)) {
	for w, word := range t.present {
		for word != 0 {
			f(&t.grid[w<<6+bits.TrailingZeros64(word)])
			word &= word - 1
		}
	}
	for i := range t.overflow {
		f(&t.overflow[i])
	}
}

// Quantize maps a raw operating point to its table key. scFrac and baFrac
// are available-energy fractions in [0,1]; pm is the power mismatch.
func (t *Table) Quantize(scFrac, baFrac float64, pm units.Power) Key {
	return Key{
		SCLevel: t.quantizeFrac(scFrac),
		BALevel: t.quantizeFrac(baFrac),
		PMLevel: t.quantizePM(pm),
	}
}

func (t *Table) quantizeFrac(f float64) int {
	f = units.Clamp(f, 0, 1)
	b := int(f * float64(t.cfg.LevelBins))
	if b >= t.cfg.LevelBins {
		b = t.cfg.LevelBins - 1
	}
	return b
}

func (t *Table) quantizePM(pm units.Power) int {
	if pm <= 0 {
		return 0
	}
	return int(float64(pm) / t.cfg.PMBinWatts)
}

// Add inserts or overwrites the entry for the given raw operating point
// (Figure 10 lines 13-15: "Round(...); Add {...} to the PAT"). The ratio
// is clamped to [0,1]. When the table is at capacity, the least-hit entry
// is evicted first.
func (t *Table) Add(scFrac, baFrac float64, pm units.Power, ratio float64) Key {
	k := t.Quantize(scFrac, baFrac, pm)
	e := t.find(k)
	if e == nil {
		if t.Len() >= t.cfg.MaxEntries {
			t.evictColdest()
		}
		e = t.insert(k)
	}
	*e = Entry{Key: k, Ratio: units.Clamp(ratio, 0, 1)}
	return k
}

// Reset empties the table and clears the lookup counters, keeping the
// configuration and the grid: a reset table matches a fresh one, and
// refilling it allocates nothing.
func (t *Table) Reset() {
	clear(t.present)
	t.gridLen = 0
	t.overflow = t.overflow[:0]
	clear(t.overflowAt)
	t.lookups, t.misses = 0, 0
}

// CopyFrom makes t an independent copy of src: configuration, grid shape,
// entries and counters. Restoring a pooled table from a seeded image
// this way allocates nothing once t has held a table of src's shape.
func (t *Table) CopyFrom(src *Table) {
	t.cfg = src.cfg
	t.grid = append(t.grid[:0], src.grid...)
	t.present = append(t.present[:0], src.present...)
	t.gridPM, t.gridLen = src.gridPM, src.gridLen
	t.overflow = append(t.overflow[:0], src.overflow...)
	if t.overflowAt == nil {
		t.overflowAt = make(map[Key]int, len(src.overflow))
	}
	clear(t.overflowAt)
	for i, e := range t.overflow {
		t.overflowAt[e.Key] = i
	}
	t.lookups, t.misses = src.lookups, src.misses
}

// Clone returns an independent copy of t.
func (t *Table) Clone() *Table {
	c := &Table{}
	c.CopyFrom(t)
	return c
}

// evictColdest removes the least-hit entry, the lowest key among ties.
func (t *Table) evictColdest() {
	var coldest *Entry
	t.each(func(e *Entry) {
		if coldest == nil || e.Hits < coldest.Hits ||
			(e.Hits == coldest.Hits && keyLess(e.Key, coldest.Key)) {
			coldest = e
		}
	})
	if coldest != nil {
		t.remove(coldest.Key)
	}
}

func keyLess(a, b Key) bool {
	if a.SCLevel != b.SCLevel {
		return a.SCLevel < b.SCLevel
	}
	if a.BALevel != b.BALevel {
		return a.BALevel < b.BALevel
	}
	return a.PMLevel < b.PMLevel
}

// Lookup finds R_λ for the raw operating point. It returns the exact
// quantized entry if present (Figure 10 lines 2-6); otherwise the most
// similar entry under a weighted Manhattan distance over the key space
// (line 8, Similar(...)). The boolean reports whether anything was found
// (an empty table yields false and ratio 0.5 as a neutral default).
func (t *Table) Lookup(scFrac, baFrac float64, pm units.Power) (ratio float64, exact bool, found bool) {
	t.lookups++
	k := t.Quantize(scFrac, baFrac, pm)
	if e := t.find(k); e != nil {
		e.Hits++
		return e.Ratio, true, true
	}
	t.misses++
	e := t.similar(k)
	if e == nil {
		return 0.5, false, false
	}
	e.Hits++
	return e.Ratio, false, true
}

// similar returns the nearest entry to k, preferring matches in the PM
// dimension (the mismatch magnitude drives the decision most strongly),
// breaking exact-distance ties deterministically by key order, so the
// order the entries are visited in does not matter.
func (t *Table) similar(k Key) *Entry {
	var best *Entry
	bestDist := math.Inf(1)
	t.each(func(e *Entry) {
		if d := keyDist(e.Key, k); d < bestDist || (d == bestDist && keyLess(e.Key, best.Key)) {
			bestDist = d
			best = e
		}
	})
	return best
}

// keyDist is the weighted Manhattan distance similar minimizes.
func keyDist(a, b Key) float64 {
	return 2*math.Abs(float64(a.PMLevel-b.PMLevel)) +
		math.Abs(float64(a.SCLevel-b.SCLevel)) +
		math.Abs(float64(a.BALevel-b.BALevel))
}

// Drift describes which pool drained faster than expected over a slot,
// from the controller's end-of-slot comparison of SC/BA energy ratios
// (Figure 10 lines 17-21).
type Drift int

const (
	// DriftNone: the pools drained as the table expected.
	DriftNone Drift = iota
	// DriftBatteryFast: the battery fraction fell relative to the SC
	// fraction — the battery carried too much; shift load toward SCs.
	DriftBatteryFast
	// DriftSupercapFast: the SC fraction fell relatively — SCs carried
	// too much; shift load toward batteries.
	DriftSupercapFast
)

// ClassifyDrift compares the start and end SC:BA availability ratios of a
// slot and returns the drift direction, with a small relative tolerance so
// measurement noise does not thrash the table.
func ClassifyDrift(scStart, baStart, scEnd, baEnd float64) Drift {
	const tol = 0.02
	startRatio := safeRatio(scStart, baStart)
	endRatio := safeRatio(scEnd, baEnd)
	switch {
	case endRatio > startRatio*(1+tol):
		// SC share grew ⇒ battery drained faster.
		return DriftBatteryFast
	case endRatio < startRatio*(1-tol):
		return DriftSupercapFast
	default:
		return DriftNone
	}
}

func safeRatio(num, den float64) float64 {
	if den <= 1e-12 {
		if num <= 1e-12 {
			return 1
		}
		return math.Inf(1)
	}
	return num / den
}

// Update applies the ±Δr learning rule to the entry for the slot's
// starting operating point: DriftBatteryFast increases R_λ (more load on
// SCs next time), DriftSupercapFast decreases it (Figure 10 lines 16-22).
// If no entry exists for the operating point, one is created at the given
// observed ratio first. The updated ratio is returned.
func (t *Table) Update(scFrac, baFrac float64, pm units.Power, observedRatio float64, d Drift) float64 {
	k := t.Quantize(scFrac, baFrac, pm)
	e := t.find(k)
	if e == nil {
		t.Add(scFrac, baFrac, pm, observedRatio)
		e = t.find(k)
	}
	switch d {
	case DriftBatteryFast:
		e.Ratio = units.Clamp(e.Ratio+t.cfg.DeltaR, 0, 1)
		e.Updates++
	case DriftSupercapFast:
		e.Ratio = units.Clamp(e.Ratio-t.cfg.DeltaR, 0, 1)
		e.Updates++
	}
	return e.Ratio
}

// Entries returns the table contents sorted by key (for reports and
// serialization).
func (t *Table) Entries() []Entry {
	out := make([]Entry, 0, t.Len())
	t.each(func(e *Entry) { out = append(out, *e) })
	if len(t.overflow) > 0 {
		sort.Slice(out, func(i, j int) bool { return keyLess(out[i].Key, out[j].Key) })
	}
	return out
}

// Stats reports lookup traffic: total lookups and how many missed the
// exact entry (served by Similar instead).
func (t *Table) Stats() (lookups, misses int) { return t.lookups, t.misses }

// tableJSON is the stable serialized form.
type tableJSON struct {
	Config  Config  `json:"config"`
	Entries []Entry `json:"entries"`
}

// Save writes the table as JSON.
func (t *Table) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(tableJSON{Config: t.cfg, Entries: t.Entries()}); err != nil {
		return fmt.Errorf("pat: save: %w", err)
	}
	return nil
}

// Load reads a table saved by Save. It rejects anything Save could not
// have written: an invalid configuration, more entries than MaxEntries,
// a key twice, a key no Quantize produces, a ratio outside [0,1],
// negative counters, or data after the table.
func Load(r io.Reader) (*Table, error) {
	var tj tableJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tj); err != nil {
		return nil, fmt.Errorf("pat: load: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("pat: load: trailing data after the table")
	}
	t, err := New(tj.Config)
	if err != nil {
		return nil, err
	}
	if len(tj.Entries) > t.cfg.MaxEntries {
		return nil, fmt.Errorf("pat: load: %d entries exceed max entries %d", len(tj.Entries), t.cfg.MaxEntries)
	}
	for _, e := range tj.Entries {
		k := e.Key
		switch {
		case k.SCLevel < 0 || k.SCLevel >= t.cfg.LevelBins ||
			k.BALevel < 0 || k.BALevel >= t.cfg.LevelBins || k.PMLevel < 0:
			return nil, fmt.Errorf("pat: load: key %+v outside %d level bins and non-negative PM levels", k, t.cfg.LevelBins)
		case !(e.Ratio >= 0 && e.Ratio <= 1):
			return nil, fmt.Errorf("pat: load: key %+v: ratio %g outside [0,1]", k, e.Ratio)
		case e.Hits < 0 || e.Updates < 0:
			return nil, fmt.Errorf("pat: load: key %+v: negative hits %d or updates %d", k, e.Hits, e.Updates)
		case t.find(k) != nil:
			return nil, fmt.Errorf("pat: load: duplicate key %+v", k)
		}
		*t.insert(k) = e
	}
	return t, nil
}
