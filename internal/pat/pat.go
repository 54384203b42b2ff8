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
package pat

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
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

// Table is the power allocation table. It is not safe for concurrent use;
// the controller owns it from a single goroutine.
type Table struct {
	cfg     Config
	entries map[Key]*Entry
	// spare holds entries retired by Reset for reuse: re-seeding a pooled
	// table revisits mostly the same operating points, so Add can recycle
	// the old Entry values instead of allocating fresh ones.
	spare map[Key]*Entry

	lookups, misses int
}

// New builds an empty table.
func New(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Table{cfg: cfg, entries: make(map[Key]*Entry)}, nil
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
func (t *Table) Len() int { return len(t.entries) }

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
	e, exists := t.entries[k]
	if !exists {
		if len(t.entries) >= t.cfg.MaxEntries {
			t.evictColdest()
		}
		if s, ok := t.spare[k]; ok {
			e = s
			delete(t.spare, k)
		} else {
			e = &Entry{}
		}
		t.entries[k] = e
	}
	*e = Entry{Key: k, Ratio: units.Clamp(ratio, 0, 1)}
	return k
}

// Reset empties the table and clears the lookup counters, keeping the
// configuration: a reset table matches a fresh one. The retired entries
// are parked for Add to recycle, so a pooled table re-seeded with a
// similar operating grid allocates nothing.
func (t *Table) Reset() {
	if t.spare == nil {
		t.spare = make(map[Key]*Entry, len(t.entries))
	}
	for k, e := range t.spare {
		t.entries[k] = e
		delete(t.spare, k)
	}
	t.entries, t.spare = t.spare, t.entries
	t.lookups, t.misses = 0, 0
}

func (t *Table) evictColdest() {
	var coldest *Entry
	for _, e := range t.entries {
		if coldest == nil || e.Hits < coldest.Hits ||
			(e.Hits == coldest.Hits && keyLess(e.Key, coldest.Key)) {
			coldest = e
		}
	}
	if coldest != nil {
		delete(t.entries, coldest.Key)
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
	if e, ok := t.entries[k]; ok {
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
// breaking exact-distance ties deterministically by key order.
func (t *Table) similar(k Key) *Entry {
	var best *Entry
	bestDist := math.Inf(1)
	// Map order does not matter: a tie goes to the lower key, so one pass
	// picks what a scan in key order would.
	for kk, e := range t.entries {
		d := 2*math.Abs(float64(kk.PMLevel-k.PMLevel)) +
			math.Abs(float64(kk.SCLevel-k.SCLevel)) +
			math.Abs(float64(kk.BALevel-k.BALevel))
		if d < bestDist || (d == bestDist && keyLess(kk, best.Key)) {
			bestDist = d
			best = e
		}
	}
	return best
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
	e, ok := t.entries[k]
	if !ok {
		t.Add(scFrac, baFrac, pm, observedRatio)
		e = t.entries[k]
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
	out := make([]Entry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return keyLess(out[i].Key, out[j].Key) })
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

// Load reads a table saved by Save.
func Load(r io.Reader) (*Table, error) {
	var tj tableJSON
	if err := json.NewDecoder(r).Decode(&tj); err != nil {
		return nil, fmt.Errorf("pat: load: %w", err)
	}
	t, err := New(tj.Config)
	if err != nil {
		return nil, err
	}
	for _, e := range tj.Entries {
		e := e
		t.entries[e.Key] = &e
	}
	return t, nil
}
