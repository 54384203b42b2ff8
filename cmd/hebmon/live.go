package main

import (
	"fmt"
	"net/http"
	"strconv"

	"heb/internal/ascii"
	"heb/internal/obs"
	"heb/internal/power"
	"heb/internal/sim"
)

// Snapshot is the JSON wire form of one recorded step.
type Snapshot struct {
	Seconds     float64 `json:"t_seconds"`
	DemandW     float64 `json:"demand_w"`
	SupplyW     float64 `json:"supply_w"`
	BatterySoC  float64 `json:"battery_soc"`
	SupercapSoC float64 `json:"supercap_soc"`
	OnUtility   int     `json:"on_utility"`
	OnBattery   int     `json:"on_battery"`
	OnSupercap  int     `json:"on_supercap"`
	Off         int     `json:"off"`
	Mismatch    bool    `json:"mismatch"`
}

// fromStep converts an engine StepInfo.
func fromStep(s sim.StepInfo) Snapshot {
	return Snapshot{
		Seconds:     s.Now.Seconds(),
		DemandW:     float64(s.Demand),
		SupplyW:     float64(s.Supply),
		BatterySoC:  s.BatterySoC,
		SupercapSoC: s.SupercapSoC,
		OnUtility:   s.OnUtility,
		OnBattery:   s.OnBattery,
		OnSupercap:  s.OnSupercap,
		Off:         s.Off,
		Mismatch:    s.Mismatch,
	}
}

// Summary aggregates the live run since start.
type Summary struct {
	Steps          int     `json:"steps"`
	MismatchSteps  int     `json:"mismatch_steps"`
	PeakDemandW    float64 `json:"peak_demand_w"`
	MinBatterySoC  float64 `json:"min_battery_soc"`
	MinSupercapSoC float64 `json:"min_supercap_soc"`
	ShedServerObs  int     `json:"shed_server_observations"`
}

// engineMetrics are the engine families observe feeds on the monitor's
// registry:
//
//	heb_engine_steps_total           counter, simulated ticks completed
//	heb_engine_mismatch_steps_total  counter, ticks with demand > supply
//	heb_power_relay_switches_total   counter per {position}
//	heb_power_demand_watts           gauge
//	heb_power_supply_watts           gauge
//	heb_esd_battery_soc              gauge, 0..1
//	heb_esd_supercap_soc             gauge, 0..1
//	heb_power_servers                gauge per {position}
//
// The two step counters are the only count of steps: /summary reads its
// steps and mismatch_steps from them.
type engineMetrics struct {
	steps, mismatch *obs.Counter
	switches        [power.NumSources]*obs.Counter
	demand, supply  *obs.Gauge
	baSoC, scSoC    *obs.Gauge
	servers         [power.NumSources]*obs.Gauge
}

// newEngineMetrics registers the engine metric families on reg.
func newEngineMetrics(reg *obs.Registry) engineMetrics {
	e := engineMetrics{
		steps:    reg.Counter("heb_engine_steps_total", "Simulated engine ticks completed."),
		mismatch: reg.Counter("heb_engine_mismatch_steps_total", "Ticks where demand exceeded effective supply."),
		demand:   reg.Gauge("heb_power_demand_watts", "Total server demand at the latest tick."),
		supply:   reg.Gauge("heb_power_supply_watts", "Feed availability at the latest tick."),
		baSoC:    reg.Gauge("heb_esd_battery_soc", "Battery pool state of charge (0..1)."),
		scSoC:    reg.Gauge("heb_esd_supercap_soc", "Super-capacitor pool state of charge (0..1)."),
	}
	for src := 0; src < power.NumSources; src++ {
		pos := obs.Label{Name: "position", Value: power.Source(src).String()}
		e.switches[src] = reg.Counter("heb_power_relay_switches_total",
			"Effective relay movements by destination position.", pos)
		e.servers[src] = reg.Gauge("heb_power_servers",
			"Servers on each relay position at the latest tick.", pos)
	}
	return e
}

// observe folds one engine step into the live state: the snapshot ring,
// the summary, and the engine counters and gauges. StepInfo carries
// cumulative relay-movement counts, so the switch counters take the
// delta from the last step seen.
func (m *monitor) observe(s sim.StepInfo) {
	snap := fromStep(s)
	e := &m.engine
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ring.Push(snap)
	e.steps.Inc()
	if snap.Mismatch {
		e.mismatch.Inc()
	}
	if snap.DemandW > m.summary.PeakDemandW {
		m.summary.PeakDemandW = snap.DemandW
	}
	if snap.BatterySoC < m.summary.MinBatterySoC {
		m.summary.MinBatterySoC = snap.BatterySoC
	}
	if snap.SupercapSoC < m.summary.MinSupercapSoC {
		m.summary.MinSupercapSoC = snap.SupercapSoC
	}
	m.summary.ShedServerObs += snap.Off

	e.demand.Set(snap.DemandW)
	e.supply.Set(snap.SupplyW)
	e.baSoC.Set(snap.BatterySoC)
	e.scSoC.Set(snap.SupercapSoC)
	e.servers[power.SourceUtility].Set(float64(snap.OnUtility))
	e.servers[power.SourceBattery].Set(float64(snap.OnBattery))
	e.servers[power.SourceSupercap].Set(float64(snap.OnSupercap))
	e.servers[power.SourceOff].Set(float64(snap.Off))
	for src, n := range s.RelaySwitches {
		if d := n - m.lastSwitches[src]; d > 0 {
			e.switches[src].Add(float64(d))
		}
	}
	m.lastSwitches = s.RelaySwitches
}

// latest returns the most recent snapshot.
func (m *monitor) latest() (Snapshot, bool) {
	m.mu.RLock()
	last := m.ring.Last(1)
	m.mu.RUnlock()
	if len(last) == 0 {
		return Snapshot{}, false
	}
	return last[0], true
}

// history returns up to n most recent snapshots, oldest first; n <= 0
// means everything held. The /history endpoint does not share this
// convention: there n must be a positive integer and ?n=0 is a 400, so
// that a client typo never requests the whole ring.
func (m *monitor) history(n int) []Snapshot {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.ring.Last(n)
}

// summarize returns the live run's summary.
func (m *monitor) summarize() Summary {
	m.mu.RLock()
	defer m.mu.RUnlock()
	s := m.summary
	s.Steps = int(m.engine.steps.Value())
	s.MismatchSteps = int(m.engine.mismatch.Value())
	return s
}

// handleLatest serves GET /latest, 404 before the first step.
func (m *monitor) handleLatest(w http.ResponseWriter, _ *http.Request) {
	s, ok := m.latest()
	if !ok {
		http.Error(w, "no snapshots yet", http.StatusNotFound)
		return
	}
	writeJSON(w, s)
}

// handleHistory serves GET /history?n= (default 60, n >= 1).
func (m *monitor) handleHistory(w http.ResponseWriter, r *http.Request) {
	n := 60
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		n = v
	}
	writeJSON(w, m.history(n))
}

// handleCurves serves GET /curves?w=: demand and SoC sparklines over
// every snapshot held.
func (m *monitor) handleCurves(w http.ResponseWriter, r *http.Request) {
	width := 80
	if q := r.URL.Query().Get("w"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v <= 0 {
			http.Error(w, "bad w", http.StatusBadRequest)
			return
		}
		width = v
	}
	hist := m.history(0)
	if len(hist) == 0 {
		http.Error(w, "no snapshots yet", http.StatusNotFound)
		return
	}
	demand := make([]float64, len(hist))
	ba := make([]float64, len(hist))
	sc := make([]float64, len(hist))
	for i, s := range hist {
		demand[i] = s.DemandW
		ba[i] = s.BatterySoC
		sc[i] = s.SupercapSoC
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, ascii.Chart("demand W", demand, width))
	fmt.Fprintln(w, ascii.Chart("batt SoC", ba, width))
	fmt.Fprintln(w, ascii.Chart("SC SoC", sc, width))
}
