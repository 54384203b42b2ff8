package power

import (
	"fmt"
	"slices"
	"time"

	"heb/internal/units"
)

// Source identifies what feeds a server through its two-way relay.
type Source int

// The relay positions. SourceOff models a shed server (the IPDU cut the
// outlet because no source could carry it).
const (
	SourceUtility Source = iota
	SourceBattery
	SourceSupercap
	SourceOff
)

// NumSources is the number of relay positions; DemandPerSource returns an
// array indexed by Source with this length.
const NumSources = 4

// String names the source.
func (s Source) String() string {
	switch s {
	case SourceUtility:
		return "utility"
	case SourceBattery:
		return "battery"
	case SourceSupercap:
		return "supercap"
	case SourceOff:
		return "off"
	default:
		return fmt.Sprintf("Source(%d)", int(s))
	}
}

// Fabric is the two-way relay switch fabric plus the IPDU metering of the
// prototype. It owns the servers, tracks per-server source assignment and
// last-use times (for least-recently-used shedding, Section 7.2), and
// meters per-source energy for the simulator. Individual relays can be
// failed for fault-injection experiments: a stuck relay keeps its last
// position and rejects switching.
//
// Per-server state is stored densely by the server's position in the
// constructor slice, not in maps, and the engine addresses servers by
// position (SourceAt, AssignAt, TouchAt); ids are resolved only at the
// id-keyed API. The fabric keeps two derived views current as relays
// move and stamps change, so the engine's per-tick reads cost O(1) or
// O(n) instead of a scan or a sort: the count of servers on each source,
// and the positions in least-recently-used order. A Fabric is not safe
// for concurrent use; parallel sweeps give each run its own Fabric.
type Fabric struct {
	servers []*Server
	index   map[int]int // server id -> position; nil when ids equal positions (the common case)

	// All indexed by position, not id.
	ids     []int
	assign  []Source
	lastUse []time.Duration
	stuck   []bool

	count [NumSources]int // servers on each source, kept by AssignAt

	// gen is the power-state generation: AssignAt bumps it when a server
	// actually powers on or off, and Reset bumps it. A caller that caches
	// per-server demand keys the cache by it.
	gen uint64

	// LRU order: lru holds every position sorted by (lastUse, id), except
	// that positions TouchAt restamped since the last LRUPositions call
	// (listed in touched, flagged in dirty) still sit at their old place.
	// LRUPositions merges them back into lruNext and swaps the two. order
	// is the order version: it changes whenever lru may have changed.
	lru, lruNext, touched []int
	dirty                 []bool
	order                 uint64

	// Held stamps (see StampHeld): held lists the positions StampHeld stamps
	// together, heldStamp is the newest of those stamps and pending says
	// it is not yet written to lastUse. heldTail records that the held
	// positions occupy the tail of lru at one shared stamp, so a newer
	// shared stamp leaves the order as it is.
	held      []int
	heldStamp time.Duration
	pending   bool
	heldTail  bool

	// faults is the relay-fault generation: FailRelay, RepairRelay and
	// Reset bump it.
	faults uint64

	// switches counts effective relay movements by destination position;
	// a no-op Assign (same source) does not count — only physical relay
	// actuations matter for the wear and event accounting.
	switches [NumSources]int64
	// onSwitch, when set, observes each effective relay movement. It is
	// invoked synchronously from Assign, so it must be cheap; the nil
	// default costs one predictable branch.
	onSwitch func(id int, from, to Source)

	meter Meter
}

// Meter is the IPDU's cumulative energy metering by source.
type Meter struct {
	Utility  units.Energy
	Battery  units.Energy
	Supercap units.Energy
	// Unserved is demand that existed while a server was shed.
	Unserved units.Energy
	// DowntimeServerSeconds accumulates server-seconds spent shed.
	DowntimeServerSeconds float64
}

// NewFabric wires the given servers, all initially on utility power.
func NewFabric(servers []*Server) (*Fabric, error) {
	n := len(servers)
	if n == 0 {
		return nil, fmt.Errorf("power: fabric needs at least one server")
	}
	dense := true
	for i, s := range servers {
		if s == nil {
			return nil, fmt.Errorf("power: nil server in fabric")
		}
		dense = dense && s.ID() == i
	}
	var index map[int]int
	if !dense {
		index = make(map[int]int, n)
		for i, s := range servers {
			if _, dup := index[s.ID()]; dup {
				return nil, fmt.Errorf("power: duplicate server id %d", s.ID())
			}
			index[s.ID()] = i
		}
	}
	// The per-position int and bool slices share one block each.
	ints := make([]int, 5*n)
	flags := make([]bool, 2*n)
	f := &Fabric{
		servers: servers,
		index:   index,
		ids:     ints[:n:n],
		lru:     ints[n : 2*n : 2*n],
		lruNext: ints[2*n : 3*n : 3*n],
		touched: ints[3*n : 3*n : 4*n],
		held:    ints[4*n : 4*n : 5*n],
		assign:  make([]Source, n),
		lastUse: make([]time.Duration, n),
		stuck:   flags[:n:n],
		dirty:   flags[n:],
	}
	for i, s := range servers {
		f.ids[i] = s.ID()
	}
	f.Reset()
	return f, nil
}

// MustNewFabric is NewFabric for known-good server lists.
func MustNewFabric(servers []*Server) *Fabric {
	f, err := NewFabric(servers)
	if err != nil {
		panic(err)
	}
	return f
}

// idx resolves a server id to its dense position, or -1 when unknown.
func (f *Fabric) idx(id int) int {
	if f.index == nil {
		if id >= 0 && id < len(f.servers) {
			return id
		}
		return -1
	}
	if i, ok := f.index[id]; ok {
		return i
	}
	return -1
}

// Servers returns the managed servers (shared, not copied).
func (f *Fabric) Servers() []*Server { return f.servers }

// NumServers returns the server count.
func (f *Fabric) NumServers() int { return len(f.servers) }

// SourceOf returns the relay position of server id (SourceUtility for
// unknown ids, matching the zero value).
func (f *Fabric) SourceOf(id int) Source {
	if i := f.idx(id); i >= 0 {
		return f.assign[i]
	}
	return SourceUtility
}

// SourceAt returns the relay position of the server at position i of
// Servers().
func (f *Fabric) SourceAt(i int) Source { return f.assign[i] }

// Count returns how many servers sit on src. It is kept as relays move,
// so it costs O(1); SourceCounts recounts all positions from scratch.
func (f *Fabric) Count(src Source) int { return f.count[src] }

// ServerByID returns the server with the given id, or nil when unknown.
func (f *Fabric) ServerByID(id int) *Server {
	if i := f.idx(id); i >= 0 {
		return f.servers[i]
	}
	return nil
}

// ErrRelayStuck reports an Assign against a failed relay.
var ErrRelayStuck = fmt.Errorf("power: relay stuck")

// FailRelay injects a stuck-relay fault: server id keeps its current
// source and every further Assign for it fails with ErrRelayStuck.
func (f *Fabric) FailRelay(id int) error {
	i := f.idx(id)
	if i < 0 {
		return fmt.Errorf("power: unknown server id %d", id)
	}
	f.stuck[i] = true
	f.faults++
	return nil
}

// RepairRelay clears a stuck-relay fault.
func (f *Fabric) RepairRelay(id int) {
	if i := f.idx(id); i >= 0 {
		f.stuck[i] = false
		f.faults++
	}
}

// FaultGeneration returns the relay-fault generation: it changes on every
// FailRelay and RepairRelay of a known server and on Reset. A caller that
// caches a result depending on which relays can switch keys it by this.
func (f *Fabric) FaultGeneration() uint64 { return f.faults }

// RelayStuck reports whether server id's relay is failed.
func (f *Fabric) RelayStuck(id int) bool {
	i := f.idx(id)
	return i >= 0 && f.stuck[i]
}

// Assign flips the relay of server id to src. Assigning SourceOff powers
// the server down; assigning anything else powers it up. A stuck relay
// rejects the switch with ErrRelayStuck.
func (f *Fabric) Assign(id int, src Source) error {
	i := f.idx(id)
	if i < 0 {
		return fmt.Errorf("power: unknown server id %d", id)
	}
	return f.AssignAt(i, src)
}

// AssignAt is Assign for the server at position i of Servers().
func (f *Fabric) AssignAt(i int, src Source) error {
	was := f.assign[i]
	if f.stuck[i] && was != src {
		return fmt.Errorf("%w: server %d held on %v", ErrRelayStuck, f.ids[i], was)
	}
	if was != src {
		f.assign[i] = src
		f.count[was]--
		f.count[src]++
		f.switches[src]++
		if f.onSwitch != nil {
			f.onSwitch(f.ids[i], was, src)
		}
	}
	if srv, on := f.servers[i], src != SourceOff; on != srv.On() {
		if on {
			srv.PowerOn()
		} else {
			srv.PowerOff()
		}
		f.gen++
	}
	return nil
}

// Generation returns the power-state generation: it changes exactly when
// AssignAt powers a server on or off (a shed or a restart, not a move
// between utility and a pool) and on Reset.
func (f *Fabric) Generation() uint64 { return f.gen }

// SnapshotDemand fills demand, indexed by position, with every server's
// instantaneous draw and returns the draw of all powered servers, summed
// in position order exactly as TotalDemand sums it. The engine takes one
// snapshot per tick and reads per-source sums from it with
// DemandPerSource instead of re-evaluating the power model.
func (f *Fabric) SnapshotDemand(demand []units.Power) (total units.Power) {
	for i, s := range f.servers {
		d := s.Demand()
		demand[i] = d
		if f.assign[i] != SourceOff {
			total += d
		}
	}
	return total
}

// DemandPerSource sums a SnapshotDemand snapshot per relay position at the
// present assignment, in position order. Shed servers contribute nothing
// (the SourceOff entry stays zero).
func (f *Fabric) DemandPerSource(demand []units.Power) (out [NumSources]units.Power) {
	for i, src := range f.assign {
		if src != SourceOff {
			out[src] += demand[i]
		}
	}
	return out
}

// TotalDemand is the aggregate draw of all powered servers.
func (f *Fabric) TotalDemand() units.Power {
	var p units.Power
	for i, s := range f.servers {
		if f.assign[i] != SourceOff {
			p += s.Demand()
		}
	}
	return p
}

// FirstOffline returns the lowest shed server id, or ok=false when every
// server is powered. It allocates nothing.
func (f *Fabric) FirstOffline() (id int, ok bool) {
	if f.count[SourceOff] == 0 {
		return 0, false
	}
	best, found := 0, false
	for i, src := range f.assign {
		if src == SourceOff && (!found || f.ids[i] < best) {
			best, found = f.ids[i], true
		}
	}
	return best, found
}

// OfflineServers returns the ids currently shed, sorted ascending.
func (f *Fabric) OfflineServers() []int {
	if f.count[SourceOff] == 0 {
		return nil
	}
	ids := make([]int, 0, f.count[SourceOff])
	for i, src := range f.assign {
		if src == SourceOff {
			ids = append(ids, f.ids[i])
		}
	}
	slices.Sort(ids)
	return ids
}

// Touch records that server id did useful work at simulation time now;
// the LRU shedding order uses these stamps.
func (f *Fabric) Touch(id int, now time.Duration) {
	if i := f.idx(id); i >= 0 {
		f.TouchAt(i, now)
	}
}

// TouchAt is Touch for the server at position i of Servers(). A changed
// stamp queues the position for LRUPositions to re-place; each position
// is queued at most once, however often it is restamped in between.
func (f *Fabric) TouchAt(i int, now time.Duration) {
	f.flushHeld()
	f.touch(i, now)
}

func (f *Fabric) touch(i int, now time.Duration) {
	if f.lastUse[i] == now {
		return
	}
	f.lastUse[i] = now
	f.heldTail = false
	if !f.dirty[i] {
		f.dirty[i] = true
		f.touched = append(f.touched, i)
	}
}

// Hold starts a new, empty held set, after writing out the previous
// set's pending stamp. An engine that holds a workload row calls Hold
// and HoldAt when it reads the row, and StampHeld on every tick.
func (f *Fabric) Hold() {
	f.flushHeld()
	f.held = f.held[:0]
	f.heldTail = false
}

// HoldAt adds the server at position i of Servers() to the held set. A
// position is added at most once per set. A pending stamp is written out
// first, so it covers only the positions held when it was taken.
func (f *Fabric) HoldAt(i int) {
	f.flushHeld()
	f.held = append(f.held, i)
	f.heldTail = false
}

// StampHeld records that every held position did useful work at now. It
// has the effect of TouchAt on each of them but costs O(1): the stamp is
// written to lastUse only when something reads it (LRUPositions,
// Checkpoint, TouchAt, Hold or Reset), and once the held positions sit at
// the LRU tail at one stamp, writing a newer one moves nothing.
func (f *Fabric) StampHeld(now time.Duration) {
	f.heldStamp, f.pending = now, true
}

// tailKeeps reports whether the pending held stamp leaves the LRU order
// as it is: the held positions occupy the tail at one shared stamp, and
// the pending stamp is no older, so they stay there in id order.
func (f *Fabric) tailKeeps() bool {
	return f.heldTail && f.heldStamp >= f.lastUse[f.held[0]]
}

// flushHeld writes the pending held stamp to lastUse.
func (f *Fabric) flushHeld() {
	if !f.pending {
		return
	}
	f.pending = false
	if f.tailKeeps() {
		for _, i := range f.held {
			f.lastUse[i] = f.heldStamp
		}
		return
	}
	for _, i := range f.held {
		f.touch(i, f.heldStamp)
	}
}

// heldAtTail reports whether the held positions occupy the tail of a
// fully merged lru: they share one stamp s, the last len(held) entries
// of lru all carry s and the entry before them an older stamp. Exactly
// len(held) positions then carry s, so they are the held ones.
func (f *Fabric) heldAtTail() bool {
	k, n := len(f.held), len(f.lru)
	if k == 0 {
		return false
	}
	s := f.lastUse[f.held[0]]
	for _, i := range f.held {
		if f.lastUse[i] != s {
			return false
		}
	}
	for _, p := range f.lru[n-k:] {
		if f.lastUse[p] != s {
			return false
		}
	}
	return k == n || f.lastUse[f.lru[n-k-1]] < s
}

// lruCmp orders positions by (lastUse, id), least recently used first;
// ids are unique, so the order is total and any two ways of sorting agree.
func (f *Fabric) lruCmp(a, b int) int {
	ka, kb := f.lastUse[a], f.lastUse[b]
	if ka == kb {
		ka, kb = time.Duration(f.ids[a]), time.Duration(f.ids[b])
	}
	switch {
	case ka < kb:
		return -1
	case ka > kb:
		return 1
	}
	return 0
}

// LRUPositions returns every position of Servers() sorted
// least-recently-used first, ties by server id — the order in which the
// controller sheds servers when the buffers run dry ("We chose the least
// recently used servers to shut down", §7.2). Only the positions
// restamped since the previous call are sorted; they are merged into the
// untouched run in O(n); a pending held stamp that keeps the order is
// left pending. The slice is the fabric's own and a later call or Reset
// rewrites it: read it, do not keep it.
func (f *Fabric) LRUPositions() []int {
	if !f.tailKeeps() {
		f.flushHeld()
	}
	if len(f.touched) == 0 {
		return f.lru
	}
	// An engine tick touches in position order at one stamp, which on a
	// dense fabric is already sorted: check before sorting.
	t := f.touched
	for j := 1; j < len(t); j++ {
		if f.lruCmp(t[j-1], t[j]) > 0 {
			slices.SortFunc(t, f.lruCmp)
			break
		}
	}
	out, k := f.lruNext[:0], 0
	for _, p := range f.lru {
		if f.dirty[p] {
			continue
		}
		for ; k < len(t) && f.lruCmp(t[k], p) < 0; k++ {
			out = append(out, t[k])
		}
		out = append(out, p)
	}
	out = append(out, t[k:]...)
	for _, p := range t {
		f.dirty[p] = false
	}
	f.lru, f.lruNext = out, f.lru
	f.touched = t[:0]
	f.order++
	f.heldTail = f.heldAtTail()
	return out
}

// OrderVersion returns the LRU order version: LRUPositions returns the
// same order as at its previous call whenever the version is unchanged.
// A caller that caches a result derived from the order keys it by this,
// read after LRUPositions.
func (f *Fabric) OrderVersion() uint64 { return f.order }

// LRUOrderInto fills buf with all server ids in LRUPositions order and
// returns it, growing buf only when its capacity is short.
func (f *Fabric) LRUOrderInto(buf []int) []int {
	buf = buf[:0]
	for _, p := range f.LRUPositions() {
		buf = append(buf, f.ids[p])
	}
	return buf
}

// MeterStepPools records dt worth of energy flows at the present
// assignment, given the demand on each source (see DemandPerSource) and
// the power each storage pool actually delivered (after depletion); the
// difference between a pool's demand and its delivered share counts as
// unserved energy.
func (f *Fabric) MeterStepPools(dt time.Duration, demand [NumSources]units.Power, servedBA, servedSC units.Power) {
	f.meter.Utility += demand[SourceUtility].Over(dt)

	pool := func(served, want units.Power) (credited units.Power) {
		if served > want {
			served = want
		}
		if want > served {
			f.meter.Unserved += (want - served).Over(dt)
		}
		return served
	}
	f.meter.Battery += pool(servedBA, demand[SourceBattery]).Over(dt)
	f.meter.Supercap += pool(servedSC, demand[SourceSupercap]).Over(dt)
	f.meter.DowntimeServerSeconds += float64(f.count[SourceOff]) * dt.Seconds()
}

// SetSwitchListener installs fn to observe every effective relay movement
// (nil uninstalls). The listener runs synchronously inside Assign.
func (f *Fabric) SetSwitchListener(fn func(id int, from, to Source)) {
	f.onSwitch = fn
}

// SwitchCounts returns cumulative effective relay movements indexed by
// destination position. Moves to SourceOff are sheds, moves away from it
// restores; battery/supercap entries count pool (re)assignments.
func (f *Fabric) SwitchCounts() [NumSources]int64 { return f.switches }

// SourceCounts recounts how many servers sit on each relay position from
// the relay states themselves. The entries always sum to NumServers —
// each server's relay is in exactly one position — which is the
// exclusivity invariant the energy auditor checks every step, against
// the kept Count(SourceOff). It allocates nothing.
func (f *Fabric) SourceCounts() (out [NumSources]int) {
	for _, src := range f.assign {
		out[src]++
	}
	return out
}

// Reset restores the fabric to its freshly constructed state: every
// relay back on utility, fault injections and LRU stamps cleared,
// switch counters and meter zeroed. Like NewFabric it leaves the
// servers' own state alone (callers reset those separately), performs
// no PowerOn side effects and notifies no switch listener — it is the
// run-state pooling path, not a simulated relay movement.
func (f *Fabric) Reset() {
	for i := range f.servers {
		f.assign[i] = SourceUtility
		f.lastUse[i] = 0
		f.stuck[i] = false
		f.dirty[i] = false
		f.lru[i] = i
	}
	if f.index != nil {
		slices.SortFunc(f.lru, f.lruCmp) // all stamps zero: id order
	}
	f.touched = f.touched[:0]
	f.held = f.held[:0]
	f.pending, f.heldTail = false, false
	f.count = [NumSources]int{SourceUtility: len(f.servers)}
	f.switches = [NumSources]int64{}
	f.meter = Meter{}
	f.gen++
	f.order++
	f.faults++
}

// Meter returns the cumulative IPDU meter readings.
func (f *Fabric) Meter() Meter { return f.meter }
