package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"heb/internal/core"
	"heb/internal/esd"
	"heb/internal/obs"
	"heb/internal/pat"
	"heb/internal/power"
	"heb/internal/trace"
	"heb/internal/units"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/engine_paths.golden from the current code")

// burstyTrace is a deterministic per-server workload: each server
// alternates idle stretches (below the LRU activity threshold) with busy
// bursts of its own phase and depth, so LRU stamps, per-server demands
// and relay positions all diverge between servers.
func burstyTrace(servers int, duration, step time.Duration) *trace.Trace {
	tr := trace.MustNew("bursty", step, servers, int(duration/step))
	state := uint64(0x9e3779b97f4a7c15)
	next := func() float64 { // xorshift64*, fixed across Go releases
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		return float64((state*0x2545f4914f6cdd1d)>>11) / (1 << 53)
	}
	for j := 0; j < servers; j++ {
		period := 300 + 97*j // seconds
		phase := 53 * j
		for i := range tr.Samples {
			u := 0.02 * next()
			if k := (i + phase) % period; k < period/2 {
				u = 0.35 + 0.65*math.Sin(math.Pi*float64(k)/float64(period/2)) + 0.1*(next()-0.5)
			}
			tr.Samples[i][j] = units.Clamp(u, 0, 1)
		}
	}
	return tr
}

// eventDigest folds every emitted event into a count and an FNV-64 hash,
// pinning the relay-movement sequence, not just its totals.
type eventDigest struct {
	n int
	h uint64
}

func (d *eventDigest) Emit(ev obs.Event) {
	b, _ := json.Marshal(ev)
	h := fnv.New64a()
	fmt.Fprintf(h, "%016x", d.h)
	h.Write(b)
	d.h = h.Sum64()
	d.n++
}

// enginePath is one run off the default engine path: its server count
// (zero for the rig's six), server ids (nil for dense ids), feed budget,
// scheme constructor (a HEB scheme learns into its PAT, so every run
// builds its own) and a tweak applied to the config before the engine is
// built. The tweak gets a pointer to the engine variable so an observer
// can reach the fabric.
type enginePath struct {
	name    string
	servers int
	ids     []int
	budget  units.Power
	scheme  func() core.Scheme
	tweak   func(*Config, *rig, **Engine)
}

func hebD() core.Scheme { return core.NewHEBD(pat.MustNew(pat.DefaultConfig())) }

// enginePaths lists the four paths TestEnginePathsGolden pins: DVFS
// capping, a relay stuck on a pool across a peak, a starved run that
// sheds and restarts, and servers with non-dense ids.
func enginePaths() []enginePath {
	return []enginePath{
		{name: "dvfs_capping", budget: 230, scheme: core.NewBaFirst, tweak: func(cfg *Config, _ *rig, _ **Engine) {
			cfg.DVFSCapping = true
		}},
		{name: "stuck_relay", budget: 240, scheme: hebD, tweak: func(cfg *Config, _ *rig, eng **Engine) {
			// Fail every relay that sits on a pool at the first mismatch
			// tick after ten minutes, and repair them half an hour later:
			// the stuck servers stay on their pool through surplus ticks.
			var failed []int
			cfg.Observer = func(s StepInfo) {
				f := (*eng).Fabric()
				switch {
				case failed == nil && s.Mismatch && s.Now >= 10*time.Minute:
					for _, srv := range f.Servers() {
						if src := f.SourceOf(srv.ID()); src == power.SourceBattery || src == power.SourceSupercap {
							_ = f.FailRelay(srv.ID())
							failed = append(failed, srv.ID())
						}
					}
				case failed != nil && s.Now == 40*time.Minute:
					for _, id := range failed {
						f.RepairRelay(id)
					}
				}
			}
		}},
		{name: "shed_restart", budget: 200, scheme: core.NewSCFirst, tweak: starvedPools},
		{name: "non_dense_ids", ids: []int{10, 20, 30, 40, 50, 60}, budget: 240,
			scheme: hebD},
	}
}

// starvedPools swaps in a battery and a supercap too small to ride out a
// peak, so the run sheds servers and later restarts them.
func starvedPools(cfg *Config, r *rig, _ **Engine) {
	small := esd.DefaultBatteryConfig()
	small.CapacityAh = 0.3
	r.battery = esd.MustNewPool("battery", esd.MustNewBattery(small))
	tiny := esd.DefaultSupercapConfig()
	tiny.Capacitance = 5
	r.supercap = esd.MustNewPool("supercap", esd.MustNewSupercap(tiny))
	cfg.Battery, cfg.Supercap = r.battery, r.supercap
}

// runEnginePath runs one hour of p over the workload w builds for the
// rig's servers and returns the engine with its Result, final fabric
// state (LRU stamps included) and event digest as indented JSON.
func runEnginePath(t *testing.T, p enginePath, w func(servers int) *trace.Trace) (*Engine, []byte) {
	t.Helper()
	r := newRig(t, p.budget)
	if p.servers > 0 {
		r.servers = make([]*power.Server, p.servers)
		for i := range r.servers {
			r.servers[i] = power.MustNewServer(i, power.DefaultServerConfig())
		}
	}
	for i, id := range p.ids {
		r.servers[i] = power.MustNewServer(id, power.DefaultServerConfig())
	}
	cfg := baseConfig(r, w(len(r.servers)), controller(t, p.scheme(), p.budget))
	cfg.Slot = 5 * time.Minute
	dig := &eventDigest{}
	cfg.Events = dig
	var e *Engine
	if p.tweak != nil {
		p.tweak(&cfg, r, &e)
	}
	e = MustNew(cfg)
	res := e.Run()
	out, err := json.MarshalIndent(struct {
		Result Result
		Fabric power.FabricState
		Events int
		Digest string
	}{res, e.Fabric().Checkpoint(), dig.n, fmt.Sprintf("%016x", dig.h)}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return e, out
}

// TestEnginePathsGolden pins the full Result, the final fabric state and
// the event stream of the enginePaths runs on a 1 s trace. Regenerate
// with go test ./internal/sim -run TestEnginePathsGolden -update-golden.
func TestEnginePathsGolden(t *testing.T) {
	perSecond := func(servers int) *trace.Trace { return burstyTrace(servers, time.Hour, time.Second) }
	var got bytes.Buffer
	for _, p := range enginePaths() {
		fmt.Fprintf(&got, "== %s\n", p.name)
		_, out := runEnginePath(t, p, perSecond)
		got.Write(out)
		got.WriteByte('\n')
	}

	path := filepath.Join("testdata", "engine_paths.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("engine paths differ from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("engine paths differ from %s in length: %d lines, want %d", path, len(gl), len(wl))
	}
}
