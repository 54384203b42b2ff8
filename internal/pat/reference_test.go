package pat

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"heb/internal/units"
)

// refTable is the map-backed table the dense grid replaced, kept as the
// oracle: every method the controller uses, with the original storage
// and the original one-pass eviction and similar scans.
type refTable struct {
	cfg             Config
	entries         map[Key]*Entry
	lookups, misses int
}

func newRef(cfg Config) *refTable {
	return &refTable{cfg: cfg, entries: make(map[Key]*Entry)}
}

func (t *refTable) quantize(scFrac, baFrac float64, pm units.Power) Key {
	return (&Table{cfg: t.cfg}).Quantize(scFrac, baFrac, pm)
}

// put stores e under its key, evicting first when a new key would
// exceed MaxEntries.
func (t *refTable) put(e Entry) {
	if _, ok := t.entries[e.Key]; !ok && len(t.entries) >= t.cfg.MaxEntries {
		t.evictColdest()
	}
	t.entries[e.Key] = &e
}

func (t *refTable) Add(scFrac, baFrac float64, pm units.Power, ratio float64) Key {
	k := t.quantize(scFrac, baFrac, pm)
	t.put(Entry{Key: k, Ratio: units.Clamp(ratio, 0, 1)})
	return k
}

func (t *refTable) Reset() {
	t.entries = make(map[Key]*Entry)
	t.lookups, t.misses = 0, 0
}

func (t *refTable) copyFrom(src *refTable) {
	t.cfg = src.cfg
	t.entries = make(map[Key]*Entry, len(src.entries))
	for k, e := range src.entries {
		c := *e
		t.entries[k] = &c
	}
	t.lookups, t.misses = src.lookups, src.misses
}

func (t *refTable) evictColdest() {
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

func (t *refTable) Lookup(scFrac, baFrac float64, pm units.Power) (float64, bool, bool) {
	t.lookups++
	k := t.quantize(scFrac, baFrac, pm)
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

func (t *refTable) similar(k Key) *Entry {
	var best *Entry
	bestDist := math.Inf(1)
	for kk, e := range t.entries {
		d := keyDist(kk, k)
		if d < bestDist || (d == bestDist && keyLess(kk, best.Key)) {
			bestDist = d
			best = e
		}
	}
	return best
}

// sortedSimilar is the slowest correct nearest-entry search: scan the
// keys in ascending order and keep the first strictly closer one.
func (t *refTable) sortedSimilar(k Key) *Entry {
	keys := make([]Key, 0, len(t.entries))
	for kk := range t.entries {
		keys = append(keys, kk)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	var best *Entry
	bestDist := math.Inf(1)
	for _, kk := range keys {
		if d := keyDist(kk, k); d < bestDist {
			bestDist = d
			best = t.entries[kk]
		}
	}
	return best
}

// equidistant reports whether another entry is as close to k as best.
func (t *refTable) equidistant(k, best Key) bool {
	for kk := range t.entries {
		if kk != best && keyDist(kk, k) == keyDist(best, k) {
			return true
		}
	}
	return false
}

func (t *refTable) Update(scFrac, baFrac float64, pm units.Power, observedRatio float64, d Drift) float64 {
	k := t.quantize(scFrac, baFrac, pm)
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

func (t *refTable) Entries() []Entry {
	out := make([]Entry, 0, len(t.entries))
	for _, e := range t.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return keyLess(out[i].Key, out[j].Key) })
	return out
}

func (t *refTable) Digest() Digest {
	d := Digest{Len: len(t.entries)}
	for _, e := range t.entries {
		var h Digest
		h.Fold(uint64(e.Key.SCLevel))
		h.Fold(uint64(e.Key.BALevel))
		h.Fold(uint64(e.Key.PMLevel))
		h.Fold(math.Float64bits(e.Ratio))
		h.Fold(uint64(e.Hits))
		h.Fold(uint64(e.Updates))
		d.Sum += h.Sum
	}
	return d
}

// tablePair holds a dense table and its reference, driven in lockstep.
type tablePair struct {
	dense *Table
	ref   *refTable
}

// fill stores the same entry in both tables, keys beyond what Quantize
// produces included: they take the dense table's overflow path.
func (p tablePair) fill(e Entry) {
	if p.dense.find(e.Key) == nil {
		if p.dense.Len() >= p.dense.cfg.MaxEntries {
			p.dense.evictColdest()
		}
		*p.dense.insert(e.Key) = e
	} else {
		*p.dense.find(e.Key) = e
	}
	p.ref.put(e)
}

// check compares everything observable of the two tables.
func (p tablePair) check(t *testing.T, op string) {
	t.Helper()
	if g, w := p.dense.Entries(), p.ref.Entries(); !reflect.DeepEqual(g, w) {
		t.Fatalf("after %s: entries differ:\ndense %v\nref   %v", op, g, w)
	}
	if g, w := p.dense.Digest(), p.ref.Digest(); g != w {
		t.Fatalf("after %s: digest %+v, reference %+v", op, g, w)
	}
	if g, w := p.dense.Len(), len(p.ref.entries); g != w {
		t.Fatalf("after %s: len %d, reference %d", op, g, w)
	}
	gl, gm := p.dense.Stats()
	if gl != p.ref.lookups || gm != p.ref.misses {
		t.Fatalf("after %s: stats %d/%d, reference %d/%d", op, gl, gm, p.ref.lookups, p.ref.misses)
	}
}

// TestDenseMatchesReference drives the dense table and the map-backed
// reference through one random sequence of Add, Lookup, Update, Reset,
// Reserve and image copies, and compares the returned ratios, Entries,
// Digest and Stats after every step. Operating points reach past the
// reserved PM range, MaxEntries is small enough to evict often, and the
// coarse key space makes equidistant Similar candidates common.
func TestDenseMatchesReference(t *testing.T) {
	for _, maxEntries := range []int{1, 7, 40, 4096} {
		for _, reserve := range []int{0, 3, 6} {
			t.Run(fmt.Sprintf("max%d/grid%d", maxEntries, reserve), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(maxEntries*10 + reserve)))
				cfg := Config{LevelBins: 4, PMBinWatts: 20, DeltaR: 0.05, MaxEntries: maxEntries}
				p := tablePair{MustNew(cfg), newRef(cfg)}
				p.dense.Reserve(reserve)
				image := tablePair{MustNew(cfg), newRef(cfg)}
				point := func() (float64, float64, units.Power) {
					return rng.Float64(), rng.Float64(), units.Power(rng.Float64() * 200)
				}
				for step := 0; step < 3000; step++ {
					var op string
					switch r := rng.Intn(100); {
					case r < 30:
						op = "Add"
						sc, ba, pm := point()
						ratio := rng.Float64()*1.4 - 0.2
						if g, w := p.dense.Add(sc, ba, pm, ratio), p.ref.Add(sc, ba, pm, ratio); g != w {
							t.Fatalf("step %d: Add key %+v, reference %+v", step, g, w)
						}
					case r < 65:
						op = "Lookup"
						sc, ba, pm := point()
						gr, ge, gf := p.dense.Lookup(sc, ba, pm)
						wr, we, wf := p.ref.Lookup(sc, ba, pm)
						if gr != wr || ge != we || gf != wf {
							t.Fatalf("step %d: Lookup = %g,%v,%v, reference %g,%v,%v", step, gr, ge, gf, wr, we, wf)
						}
					case r < 90:
						op = "Update"
						sc, ba, pm := point()
						obs, d := rng.Float64(), Drift(rng.Intn(3))
						if g, w := p.dense.Update(sc, ba, pm, obs, d), p.ref.Update(sc, ba, pm, obs, d); g != w {
							t.Fatalf("step %d: Update = %g, reference %g", step, g, w)
						}
					case r < 93:
						op = "Reset"
						p.dense.Reset()
						p.ref.Reset()
					case r < 95:
						op = "Reserve"
						p.dense.Reserve(rng.Intn(8))
					case r < 97:
						op = "snapshot"
						image.dense.CopyFrom(p.dense)
						image.ref.copyFrom(p.ref)
					default:
						op = "restore"
						p.dense.CopyFrom(image.dense)
						p.ref.copyFrom(image.ref)
					}
					p.check(t, fmt.Sprintf("step %d %s", step, op))
					image.check(t, fmt.Sprintf("step %d %s (image)", step, op))
				}
			})
		}
	}
}

// TestCopyFromIsIndependent: a restored table and its image share no
// storage, so the run that mutates one leaves the other as it was.
func TestCopyFromIsIndependent(t *testing.T) {
	src := MustNew(DefaultConfig())
	src.Reserve(5)
	src.Add(0.5, 0.5, 40, 0.3)
	src.Add(0.5, 0.5, 400, 0.6) // overflow
	image := src.Clone()
	want := image.Entries()
	src.Lookup(0.5, 0.5, 40)
	src.Update(0.5, 0.5, 400, 0.6, DriftBatteryFast)
	src.Add(0.1, 0.1, 20, 0.9)
	if got := image.Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("image changed with its source: %v, want %v", got, want)
	}
	src.CopyFrom(image)
	src.Update(0.5, 0.5, 40, 0.3, DriftSupercapFast)
	if got := image.Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("image changed with a restored copy: %v, want %v", got, want)
	}
}
