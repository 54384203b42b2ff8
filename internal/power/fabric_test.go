package power

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"heb/internal/units"
)

func testServers(t *testing.T, n int) []*Server {
	t.Helper()
	servers := make([]*Server, n)
	for i := range servers {
		servers[i] = MustNewServer(i, DefaultServerConfig())
	}
	return servers
}

func TestNewFabricValidation(t *testing.T) {
	if _, err := NewFabric(nil); err == nil {
		t.Error("NewFabric accepted zero servers")
	}
	if _, err := NewFabric([]*Server{nil}); err == nil {
		t.Error("NewFabric accepted a nil server")
	}
	dup := []*Server{
		MustNewServer(3, DefaultServerConfig()),
		MustNewServer(3, DefaultServerConfig()),
	}
	if _, err := NewFabric(dup); err == nil {
		t.Error("NewFabric accepted duplicate server ids")
	}
}

func TestFabricInitialAssignment(t *testing.T) {
	f := MustNewFabric(testServers(t, 6))
	for id := 0; id < 6; id++ {
		if src := f.SourceOf(id); src != SourceUtility {
			t.Errorf("server %d starts on %v, want utility", id, src)
		}
	}
	if n := f.Count(SourceUtility); n != 6 {
		t.Errorf("utility count %d, want 6", n)
	}
	if got := f.SourceCounts(); got != [NumSources]int{SourceUtility: 6} {
		t.Errorf("SourceCounts %v, want all six on utility", got)
	}
}

func TestFabricAssign(t *testing.T) {
	f := MustNewFabric(testServers(t, 3))
	if err := f.Assign(1, SourceSupercap); err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if src := f.SourceOf(1); src != SourceSupercap {
		t.Errorf("server 1 on %v, want supercap", src)
	}
	if err := f.Assign(99, SourceBattery); err == nil {
		t.Error("Assign accepted unknown server id")
	}
}

func TestFabricAssignOffPowersDown(t *testing.T) {
	servers := testServers(t, 2)
	f := MustNewFabric(servers)
	servers[0].SetUtilization(1)
	if err := f.Assign(0, SourceOff); err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if servers[0].On() {
		t.Error("server still on after SourceOff assignment")
	}
	if got := f.TotalDemand(); got != servers[1].Demand() {
		t.Errorf("TotalDemand %v includes shed server", got)
	}
	// Re-assigning to a live source powers it back up and counts a cycle.
	if err := f.Assign(0, SourceUtility); err != nil {
		t.Fatalf("Assign: %v", err)
	}
	if !servers[0].On() || servers[0].PowerCycles() != 1 {
		t.Errorf("server not restarted properly: on=%v cycles=%d",
			servers[0].On(), servers[0].PowerCycles())
	}
}

func TestFabricDemandBySource(t *testing.T) {
	servers := testServers(t, 3)
	for _, s := range servers {
		s.SetUtilization(1) // 70 W each
	}
	f := MustNewFabric(servers)
	_ = f.Assign(0, SourceBattery)
	_ = f.Assign(1, SourceSupercap)
	snap := make([]units.Power, 3)
	if got := f.SnapshotDemand(snap); got != 210 {
		t.Errorf("SnapshotDemand total %v, want 210", got)
	}
	d := f.DemandPerSource(snap)
	if d != [NumSources]units.Power{SourceUtility: 70, SourceBattery: 70, SourceSupercap: 70} {
		t.Errorf("demand split wrong: %v", d)
	}
	if got := f.TotalDemand(); got != 210 {
		t.Errorf("TotalDemand %v, want 210", got)
	}
	// A shed server draws nothing, in the snapshot and per source.
	_ = f.Assign(2, SourceOff)
	if got := f.SnapshotDemand(snap); got != 140 || snap[2] != 0 {
		t.Errorf("after shed: total %v, snapshot %v", got, snap)
	}
	if d := f.DemandPerSource(snap); d[SourceUtility] != 0 || d[SourceOff] != 0 {
		t.Errorf("after shed: demand split %v", d)
	}
}

func TestFabricLRUOrder(t *testing.T) {
	f := MustNewFabric(testServers(t, 3))
	f.Touch(0, 30*time.Second)
	f.Touch(1, 10*time.Second)
	f.Touch(2, 20*time.Second)
	order := f.LRUOrderInto(nil)
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("LRU order %v, want %v", order, want)
		}
	}
}

func TestFabricLRUOrderTieBreaksByID(t *testing.T) {
	f := MustNewFabric(testServers(t, 3))
	order := f.LRUOrderInto(nil) // nobody touched: all stamps zero
	want := []int{0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("LRU order %v, want %v", order, want)
		}
	}
}

func TestFabricMeterStep(t *testing.T) {
	servers := testServers(t, 3)
	for _, s := range servers {
		s.SetUtilization(1)
	}
	f := MustNewFabric(servers)
	_ = f.Assign(0, SourceBattery)
	_ = f.Assign(1, SourceSupercap)
	_ = f.Assign(2, SourceOff)
	demand := [NumSources]units.Power{SourceBattery: 70, SourceSupercap: 70}
	f.MeterStepPools(time.Second, demand, 70, 50) // SC pool fell short by 20 W
	m := f.Meter()
	if math.Abs(float64(m.Battery-70)) > 1e-9 {
		t.Errorf("battery meter %v, want 70J", m.Battery)
	}
	if math.Abs(float64(m.Supercap-50)) > 1e-9 {
		t.Errorf("supercap meter %v, want 50J", m.Supercap)
	}
	if math.Abs(float64(m.Unserved-20)) > 1e-9 {
		t.Errorf("unserved %v, want 20J", m.Unserved)
	}
	if m.DowntimeServerSeconds != 1 {
		t.Errorf("downtime %g server-seconds, want 1", m.DowntimeServerSeconds)
	}
	f.Reset()
	if f.Meter() != (Meter{}) {
		t.Error("Reset did not clear the meter")
	}
}

func TestFabricOfflineServers(t *testing.T) {
	f := MustNewFabric(testServers(t, 4))
	_ = f.Assign(2, SourceOff)
	_ = f.Assign(0, SourceOff)
	got := f.OfflineServers()
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("OfflineServers = %v, want [0 2]", got)
	}
}

func TestSourceString(t *testing.T) {
	names := map[Source]string{
		SourceUtility:  "utility",
		SourceBattery:  "battery",
		SourceSupercap: "supercap",
		SourceOff:      "off",
		Source(42):     "Source(42)",
	}
	for src, want := range names {
		if got := src.String(); got != want {
			t.Errorf("Source(%d).String() = %q, want %q", int(src), got, want)
		}
	}
}

func TestFabricSwitchCountsAndListener(t *testing.T) {
	f := MustNewFabric(testServers(t, 3))
	if f.SwitchCounts() != [NumSources]int64{} {
		t.Fatalf("fresh fabric has switch counts %v", f.SwitchCounts())
	}
	type move struct {
		id       int
		from, to Source
	}
	var seen []move
	f.SetSwitchListener(func(id int, from, to Source) {
		seen = append(seen, move{id, from, to})
	})

	_ = f.Assign(0, SourceBattery)
	_ = f.Assign(0, SourceBattery) // no-op: same source, must not count
	_ = f.Assign(1, SourceSupercap)
	_ = f.Assign(1, SourceOff)
	_ = f.Assign(1, SourceUtility)

	want := [NumSources]int64{SourceUtility: 1, SourceBattery: 1, SourceSupercap: 1, SourceOff: 1}
	if got := f.SwitchCounts(); got != want {
		t.Errorf("switch counts %v, want %v", got, want)
	}
	wantMoves := []move{
		{0, SourceUtility, SourceBattery},
		{1, SourceUtility, SourceSupercap},
		{1, SourceSupercap, SourceOff},
		{1, SourceOff, SourceUtility},
	}
	if len(seen) != len(wantMoves) {
		t.Fatalf("listener saw %d moves, want %d: %v", len(seen), len(wantMoves), seen)
	}
	for i := range seen {
		if seen[i] != wantMoves[i] {
			t.Errorf("move %d = %v, want %v", i, seen[i], wantMoves[i])
		}
	}

	f.SetSwitchListener(nil) // uninstall: Assign must not panic
	_ = f.Assign(2, SourceBattery)
	f.Reset()
	if f.SwitchCounts() != [NumSources]int64{} {
		t.Error("Reset left switch-count residue")
	}
}

func TestFabricStuckRelayDoesNotCountSwitch(t *testing.T) {
	f := MustNewFabric(testServers(t, 2))
	if err := f.FailRelay(0); err != nil {
		t.Fatal(err)
	}
	if err := f.Assign(0, SourceBattery); err == nil {
		t.Fatal("stuck relay accepted a switch")
	}
	if got := f.SwitchCounts(); got != [NumSources]int64{} {
		t.Errorf("rejected switch was counted: %v", got)
	}
}

// TestFabricLRUAndCountsProperty drives dense and non-dense fabrics
// through random relay moves, faults, resets and LRU stamps — repeated,
// equal and decreasing, one at a time or as a whole-tick batch — and
// checks after every operation that the incrementally kept LRU order
// matches a full sort by (lastUse, id) of a model the test keeps itself,
// that the kept per-source counts match a recount, and that the power-state
// generation moves exactly when the model's server on state toggles (a shed
// or restart, not a move between utility and a pool) or the fabric resets.
func TestFabricLRUAndCountsProperty(t *testing.T) {
	for _, tc := range []struct {
		name string
		ids  []int
	}{
		{"dense", []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}},
		{"non_dense", []int{70, 10, 50, 20, 90, 30, 60, 40, 80, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			servers := make([]*Server, len(tc.ids))
			for i, id := range tc.ids {
				servers[i] = MustNewServer(id, DefaultServerConfig())
			}
			f := MustNewFabric(servers)
			stamp := map[int]time.Duration{} // the model: id -> last use
			on := make([]bool, len(tc.ids))  // the model: position -> powered
			for i := range on {
				on[i] = true
			}
			gen := f.Generation()
			assign := func(i int, src Source, err error) {
				if err == nil && on[i] != (src != SourceOff) {
					on[i] = !on[i]
					gen++
				}
			}
			var buf []int
			for op := 0; op < 5000; op++ {
				i := rng.Intn(len(tc.ids))
				id := tc.ids[i]
				now := time.Duration(rng.Intn(8)) * time.Second
				switch k := rng.Intn(20); {
				case k < 5:
					f.Touch(id, now)
					stamp[id] = now
				case k < 10:
					f.TouchAt(i, now)
					stamp[id] = now
				case k < 13: // one engine tick: a batch of touches at one stamp
					for j, id := range tc.ids {
						if rng.Intn(2) == 0 {
							f.TouchAt(j, now)
							stamp[id] = now
						}
					}
				case k < 15:
					src := Source(rng.Intn(NumSources))
					assign(i, src, f.Assign(id, src))
				case k < 17:
					src := Source(rng.Intn(NumSources))
					assign(i, src, f.AssignAt(i, src))
				case k < 18:
					_ = f.FailRelay(id)
				case k < 19:
					f.RepairRelay(id)
				default:
					f.Reset()
					clear(stamp)
					gen++
				}

				want := slices.Clone(tc.ids)
				sort.Slice(want, func(a, b int) bool {
					if sa, sb := stamp[want[a]], stamp[want[b]]; sa != sb {
						return sa < sb
					}
					return want[a] < want[b]
				})
				buf = f.LRUOrderInto(buf)
				if !slices.Equal(buf, want) {
					t.Fatalf("op %d: LRU order %v, want %v", op, buf, want)
				}
				if f.Generation() != gen {
					t.Fatalf("op %d: generation %d, want %d", op, f.Generation(), gen)
				}
				for j, s := range servers {
					if s.On() != on[j] {
						t.Fatalf("op %d: server %d on=%v, model %v", op, s.ID(), s.On(), on[j])
					}
				}
				counts := f.SourceCounts()
				for src := Source(0); src < NumSources; src++ {
					if f.Count(src) != counts[src] {
						t.Fatalf("op %d: Count(%v) = %d, recount %d", op, src, f.Count(src), counts[src])
					}
				}
			}
		})
	}
}
