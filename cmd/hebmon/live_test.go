package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"heb/internal/obs"
	"heb/internal/sim"
	"heb/internal/units"
)

// step is an engine step at t seconds with the given demand.
func step(t float64, demand float64, mismatch bool) sim.StepInfo {
	return sim.StepInfo{
		Now:        time.Duration(t * float64(time.Second)),
		Demand:     units.Power(demand),
		BatterySoC: 0.8, SupercapSoC: 0.9, Mismatch: mismatch,
	}
}

// liveServer serves a monitor with no registry that keeps capacity
// snapshots.
func liveServer(t *testing.T, capacity int) (*monitor, *httptest.Server) {
	t.Helper()
	m := newMonitor(capacity)
	srv := httptest.NewServer(m.mux())
	t.Cleanup(srv.Close)
	return m, srv
}

func TestRecorderLatestAndLen(t *testing.T) {
	m := newMonitor(4)
	if _, ok := m.latest(); ok {
		t.Error("empty monitor has a latest snapshot")
	}
	if n := len(m.history(0)); n != 0 {
		t.Errorf("empty monitor holds %d snapshots", n)
	}
	m.observe(step(1, 100, false))
	m.observe(step(2, 200, true))
	if n := len(m.history(0)); n != 2 {
		t.Errorf("holds %d snapshots, want 2", n)
	}
	s, ok := m.latest()
	if !ok || s.Seconds != 2 {
		t.Errorf("latest = %+v ok=%v", s, ok)
	}
}

func TestRecorderRingWraps(t *testing.T) {
	m := newMonitor(3)
	for i := 1; i <= 5; i++ {
		m.observe(step(float64(i), 100, false))
	}
	h := m.history(0)
	if len(h) != 3 {
		t.Fatalf("holds %d snapshots, want 3", len(h))
	}
	want := []float64{3, 4, 5}
	for i, w := range want {
		if h[i].Seconds != w {
			t.Fatalf("history %v, want seconds %v", h, want)
		}
	}
	// Asking for more than stored returns all, oldest first.
	h = m.history(100)
	if len(h) != 3 || h[0].Seconds != 3 {
		t.Errorf("history(100) = %v", h)
	}
	// Asking for fewer returns the most recent ones.
	h = m.history(2)
	if len(h) != 2 || h[0].Seconds != 4 || h[1].Seconds != 5 {
		t.Errorf("history(2) = %v", h)
	}
}

func TestRecorderSummary(t *testing.T) {
	m := newMonitor(10)
	m.observe(sim.StepInfo{Demand: 300, BatterySoC: 0.9, SupercapSoC: 0.8, Mismatch: true, Off: 1})
	m.observe(sim.StepInfo{Demand: 250, BatterySoC: 0.5, SupercapSoC: 0.95, Mismatch: false, Off: 0})
	s := m.summarize()
	if s.Steps != 2 || s.MismatchSteps != 1 {
		t.Errorf("summary %+v", s)
	}
	if s.PeakDemandW != 300 {
		t.Errorf("peak demand %g", s.PeakDemandW)
	}
	if s.MinBatterySoC != 0.5 || s.MinSupercapSoC != 0.8 {
		t.Errorf("min SoCs %g/%g", s.MinBatterySoC, s.MinSupercapSoC)
	}
	if s.ShedServerObs != 1 {
		t.Errorf("shed observations %d", s.ShedServerObs)
	}
}

func TestObserverBridgesStepInfo(t *testing.T) {
	m := newMonitor(4)
	m.observe(sim.StepInfo{
		Now: 90 * time.Second, Demand: units.Power(333), Supply: units.Power(260),
		BatterySoC: 0.7, SupercapSoC: 0.6,
		OnUtility: 4, OnBattery: 1, OnSupercap: 1, Mismatch: true,
	})
	s, ok := m.latest()
	if !ok {
		t.Fatal("observe did not record")
	}
	if s.Seconds != 90 || s.DemandW != 333 || s.OnBattery != 1 || !s.Mismatch {
		t.Errorf("bridged snapshot %+v", s)
	}
}

// TestObserveKeepsSummaryEqualToCounters checks that /summary's steps
// and mismatch_steps are the engine counters /metrics serves, after
// concurrent scrapes of both.
func TestObserveKeepsSummaryEqualToCounters(t *testing.T) {
	m, srv := liveServer(t, 8)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 500; i++ {
			m.observe(step(float64(i), 100, i%3 == 0))
		}
	}()
	for i := 0; i < 20; i++ {
		s := m.summarize()
		if s.MismatchSteps > s.Steps {
			t.Fatalf("summary %+v counts more mismatch steps than steps", s)
		}
	}
	wg.Wait()

	var sum Summary
	_, body := get(t, srv.URL+"/summary")
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Steps != 500 || sum.MismatchSteps != 167 {
		t.Fatalf("/summary = %+v, want 500 steps, 167 mismatch steps", sum)
	}
	_, prom := get(t, srv.URL+"/metrics")
	for _, line := range []string{"heb_engine_steps_total 500\n", "heb_engine_mismatch_steps_total 167\n"} {
		if !strings.Contains(string(prom), line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	m, srv := liveServer(t, 8)

	get := func(path string) (*http.Response, error) { return http.Get(srv.URL + path) }

	resp, err := get("/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %v %v", err, resp.Status)
	}
	resp.Body.Close()

	// /latest before any data: 404.
	resp, err = get("/latest")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/latest empty: %v", resp.Status)
	}
	resp.Body.Close()

	m.observe(step(1, 260, false))
	m.observe(step(2, 410, true))

	resp, err = get("/latest")
	if err != nil {
		t.Fatal(err)
	}
	var latest Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&latest); err != nil {
		t.Fatalf("decode /latest: %v", err)
	}
	resp.Body.Close()
	if latest.Seconds != 2 || !latest.Mismatch {
		t.Errorf("/latest = %+v", latest)
	}

	resp, err = get("/history?n=5")
	if err != nil {
		t.Fatal(err)
	}
	var hist []Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&hist); err != nil {
		t.Fatalf("decode /history: %v", err)
	}
	resp.Body.Close()
	if len(hist) != 2 {
		t.Errorf("/history returned %d", len(hist))
	}

	resp, err = get("/history?n=bogus")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad n accepted: %v", resp.Status)
	}
	resp.Body.Close()

	resp, err = get("/summary")
	if err != nil {
		t.Fatal(err)
	}
	var sum Summary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatalf("decode /summary: %v", err)
	}
	resp.Body.Close()
	if sum.Steps != 2 || sum.MismatchSteps != 1 {
		t.Errorf("/summary = %+v", sum)
	}

	// Unknown paths, and other methods on GET-only routes, are a 404.
	resp, err = get("/nosuch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/nosuch: %v", resp.Status)
	}
	resp, err = http.Post(srv.URL+"/readyz", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /readyz: %v", resp.Status)
	}
}

// TestHistoryZeroMeansAllButHTTPRejectsIt pins the history(0) contract:
// the method returns everything held, while the HTTP endpoint rejects
// n=0 (and any non-positive n) with 400.
func TestHistoryZeroMeansAllButHTTPRejectsIt(t *testing.T) {
	m, srv := liveServer(t, 8)
	for i := 1; i <= 5; i++ {
		m.observe(step(float64(i), 100, false))
	}
	if got := len(m.history(0)); got != 5 {
		t.Errorf("history(0) returned %d snapshots, want all 5", got)
	}
	if got := len(m.history(-3)); got != 5 {
		t.Errorf("history(-3) returned %d snapshots, want all 5", got)
	}

	for _, q := range []string{"/history?n=0", "/history?n=-1"} {
		resp, err := http.Get(srv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %v, want 400", q, resp.Status)
		}
	}
	// A positive n still works and bounds the result.
	resp, err := http.Get(srv.URL + "/history?n=2")
	if err != nil {
		t.Fatal(err)
	}
	var hist []Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&hist); err != nil {
		t.Fatalf("decode /history: %v", err)
	}
	resp.Body.Close()
	if len(hist) != 2 || hist[0].Seconds != 4 || hist[1].Seconds != 5 {
		t.Errorf("/history?n=2 = %v", hist)
	}
}

func TestMetricsBridge(t *testing.T) {
	m := newMonitor(4)
	step := func(mismatch bool, switches [4]int64) sim.StepInfo {
		return sim.StepInfo{
			Now: 10 * time.Second, Demand: 320, Supply: 260,
			BatterySoC: 0.7, SupercapSoC: 0.4,
			OnUtility: 4, OnBattery: 1, OnSupercap: 1,
			Mismatch: mismatch, RelaySwitches: switches,
		}
	}
	m.observe(step(true, [4]int64{0, 2, 1, 0}))
	m.observe(step(false, [4]int64{0, 3, 1, 1}))

	want := []struct {
		name   string
		labels []obs.Label
		value  float64
	}{
		{"heb_engine_steps_total", nil, 2},
		{"heb_engine_mismatch_steps_total", nil, 1},
		{"heb_power_demand_watts", nil, 320},
		{"heb_power_supply_watts", nil, 260},
		{"heb_esd_battery_soc", nil, 0.7},
		{"heb_esd_supercap_soc", nil, 0.4},
		{"heb_power_relay_switches_total", []obs.Label{{Name: "position", Value: "battery"}}, 3},
		{"heb_power_relay_switches_total", []obs.Label{{Name: "position", Value: "supercap"}}, 1},
		{"heb_power_relay_switches_total", []obs.Label{{Name: "position", Value: "off"}}, 1},
		{"heb_power_servers", []obs.Label{{Name: "position", Value: "utility"}}, 4},
		{"heb_power_servers", []obs.Label{{Name: "position", Value: "off"}}, 0},
	}
	for _, w := range want {
		got, ok := m.metrics.Get(w.name, w.labels...)
		if !ok {
			t.Errorf("metric %s%v missing", w.name, w.labels)
			continue
		}
		if got != w.value {
			t.Errorf("%s%v = %g, want %g", w.name, w.labels, got, w.value)
		}
	}
}

// TestMetricsEndpointServesEngineCounters scrapes the engine families
// from hebmon's /metrics.
func TestMetricsEndpointServesEngineCounters(t *testing.T) {
	m, srv := liveServer(t, 4)
	m.observe(sim.StepInfo{Demand: 300, Supply: 260, Mismatch: true,
		BatterySoC: 0.9, SupercapSoC: 0.8, RelaySwitches: [4]int64{0, 1, 0, 0}})
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	text := string(body)
	for _, line := range []string{
		"heb_engine_steps_total 1",
		"heb_engine_mismatch_steps_total 1",
		`heb_power_relay_switches_total{position="battery"} 1`,
		"heb_esd_battery_soc 0.9",
		"# TYPE heb_engine_steps_total counter",
	} {
		if !strings.Contains(text, line) {
			t.Errorf("/metrics missing %q:\n%s", line, text)
		}
	}
}

func TestRecorderConcurrentAccess(t *testing.T) {
	m := newMonitor(128)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			m.observe(step(float64(i), 100, i%2 == 0))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			m.latest()
			m.history(10)
			m.summarize()
		}
	}()
	wg.Wait()
	if s := m.summarize(); s.Steps != 1000 || s.MismatchSteps != 500 {
		t.Errorf("summary %+v, want 1000 steps, 500 mismatch steps", s)
	}
}

func TestCurvesEndpoint(t *testing.T) {
	m, srv := liveServer(t, 16)

	resp, err := http.Get(srv.URL + "/curves")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/curves with no data: %v", resp.Status)
	}
	resp.Body.Close()

	for i := 0; i < 10; i++ {
		m.observe(sim.StepInfo{Now: time.Duration(i) * time.Second,
			Demand: units.Power(200 + 20*i), BatterySoC: 0.9, SupercapSoC: 0.5})
	}
	resp, err = http.Get(srv.URL + "/curves?w=20")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, label := range []string{"demand W", "batt SoC", "SC SoC"} {
		if !strings.Contains(text, label) {
			t.Errorf("/curves missing %q:\n%s", label, text)
		}
	}
	resp, err = http.Get(srv.URL + "/curves?w=bogus")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad width accepted: %v", resp.Status)
	}
	resp.Body.Close()
}
