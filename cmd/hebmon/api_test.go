package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"heb"
	"heb/internal/obs"
	"heb/internal/obs/alerts"
	"heb/internal/obs/prof"
	"heb/internal/obs/registry"
)

// captureTwoSeeds records two real HEB-D runs of the same configuration
// except for the seed into one capture directory and returns its
// manifest.
func captureTwoSeeds(t testing.TB, dir string) obs.Manifest {
	t.Helper()
	c := obs.NewCapture()
	c.SetLabel("test")
	for _, seed := range []int64{1, 2} {
		p := heb.DefaultPrototype()
		p.Seed = seed
		p.Capture = c
		wl, err := heb.WorkloadNamed("PR")
		if err != nil {
			t.Fatal(err)
		}
		const d = 2 * time.Hour
		if _, err := p.Run(heb.HEBD, wl.WithDuration(d), heb.RunOptions{Duration: d}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	m, err := obs.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Runs) != 2 {
		t.Fatalf("manifest holds %d runs, want 2", len(m.Runs))
	}
	return m
}

// newTestMonitor serves the full mux over a scanned registry at root
// ("" = no registry).
func newTestMonitor(t testing.TB, root string) (*monitor, *httptest.Server) {
	t.Helper()
	m := newMonitor(16)
	if root != "" {
		m.reg = registry.New(root)
		if err := m.reg.Scan(); err != nil {
			t.Fatal(err)
		}
	}
	m.ready.Store(true)
	ts := httptest.NewServer(m.mux())
	t.Cleanup(ts.Close)
	return m, ts
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestAPIRunsListAndFilter(t *testing.T) {
	root := t.TempDir()
	m := captureTwoSeeds(t, root+"/sweep")
	_, ts := newTestMonitor(t, root)

	code, body := get(t, ts.URL+"/api/runs")
	if code != http.StatusOK {
		t.Fatalf("/api/runs = %d: %s", code, body)
	}
	var resp struct {
		Count int            `json:"count"`
		Runs  []registry.Run `json:"runs"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 2 {
		t.Fatalf("count = %d, want 2", resp.Count)
	}
	for _, run := range resp.Runs {
		if run.Status != obs.StatusComplete {
			t.Errorf("run %s status = %q", run.ID, run.Status)
		}
		if run.Scheme != "HEB-D" || run.Workload != "PR" {
			t.Errorf("run %s parsed as %s/%s", run.ID, run.Scheme, run.Workload)
		}
		if run.Summary.Metrics["energy_efficiency"] <= 0 {
			t.Errorf("run %s missing energy_efficiency metric", run.ID)
		}
	}

	code, body = get(t, ts.URL+"/api/runs?scheme=BaOnly")
	if code != http.StatusOK {
		t.Fatalf("filtered = %d", code)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 0 {
		t.Fatalf("BaOnly filter matched %d runs", resp.Count)
	}

	code, body = get(t, ts.URL+"/api/runs/"+m.Runs[0].ID)
	if code != http.StatusOK {
		t.Fatalf("/api/runs/{id} = %d: %s", code, body)
	}
	var one registry.Run
	if err := json.Unmarshal(body, &one); err != nil {
		t.Fatal(err)
	}
	if one.Key != m.Runs[0].Key {
		t.Fatalf("run key = %q, want %q", one.Key, m.Runs[0].Key)
	}

	if code, _ := get(t, ts.URL+"/api/runs/ffffffffffff"); code != http.StatusNotFound {
		t.Fatalf("unknown id = %d, want 404", code)
	}
}

func TestAPICompareTwoSeeds(t *testing.T) {
	root := t.TempDir()
	m := captureTwoSeeds(t, root+"/sweep")
	_, ts := newTestMonitor(t, root)

	a, b := m.Runs[0].ID, m.Runs[1].ID
	code, body := get(t, ts.URL+"/api/runs/"+a+"/compare/"+b)
	if code != http.StatusOK {
		t.Fatalf("compare = %d: %s", code, body)
	}
	var cmp registry.Comparison
	if err := json.Unmarshal(body, &cmp); err != nil {
		t.Fatal(err)
	}
	if cmp.SameConfig || cmp.Identical {
		t.Fatalf("two seeds reported same config: %+v", cmp)
	}
	if len(cmp.MetricDeltas) == 0 {
		t.Fatal("expected nonzero metric deltas between seeds")
	}

	// Self-compare: identical configuration, empty diff.
	code, body = get(t, ts.URL+"/api/runs/"+a+"/compare/"+a)
	if code != http.StatusOK {
		t.Fatalf("self compare = %d: %s", code, body)
	}
	var self registry.Comparison
	if err := json.Unmarshal(body, &self); err != nil {
		t.Fatal(err)
	}
	if !self.Identical || len(self.MetricDeltas) != 0 || self.DecisionDiffs != 0 {
		t.Fatalf("self compare not empty: %+v", self)
	}

	for _, tol := range []string{"bogus", "NaN", "-1", "Inf", "-Inf", "1e999"} {
		if code, _ := get(t, ts.URL+"/api/runs/"+a+"/compare/"+b+"?tol="+tol); code != http.StatusBadRequest {
			t.Errorf("tol=%s accepted", tol)
		}
	}
	if code, _ := get(t, ts.URL+"/api/runs/"+a+"/compare/ffffffffffff"); code != http.StatusNotFound {
		t.Fatal("unknown other accepted")
	}
}

func TestAPIWithoutRegistry(t *testing.T) {
	_, ts := newTestMonitor(t, "")
	for _, path := range []string{"/api/runs", "/api/captures", "/api/runs/abc", "/api/runs/abc/score", "/api/runs/a/compare/b"} {
		if code, _ := get(t, ts.URL+path); code != http.StatusServiceUnavailable {
			t.Errorf("%s = %d, want 503", path, code)
		}
	}
	// /api/alerts is live-only and must keep working without a registry.
	if code, _ := get(t, ts.URL+"/api/alerts"); code != http.StatusOK {
		t.Error("/api/alerts needs a registry")
	}
	if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Error("readyz not ok")
	}
}

func TestAPIRunsFilterValidation(t *testing.T) {
	root := t.TempDir()
	captureTwoSeeds(t, root+"/sweep")
	_, ts := newTestMonitor(t, root)

	code, body := get(t, ts.URL+"/api/runs?status=bogus")
	if code != http.StatusBadRequest || !strings.Contains(string(body), "unknown status") {
		t.Fatalf("bogus status = %d: %s", code, body)
	}
	if !strings.Contains(string(body), obs.StatusComplete) {
		t.Errorf("400 body does not list the valid statuses: %s", body)
	}

	code, body = get(t, ts.URL+"/api/runs?scheme=NoSuch")
	if code != http.StatusBadRequest || !strings.Contains(string(body), "unknown scheme") {
		t.Fatalf("bogus scheme = %d: %s", code, body)
	}
	if !strings.Contains(string(body), "HEB-D") {
		t.Errorf("400 body does not list the valid schemes: %s", body)
	}

	// Valid-but-unmatched filters still answer 200 with zero rows.
	if code, body = get(t, ts.URL+"/api/runs?scheme=BaOnly&status=failed"); code != http.StatusOK {
		t.Fatalf("valid filter = %d: %s", code, body)
	}
}

// captureAlerted records one HEB-D run with the rule engine on and a
// deliberately low SoC ceiling so the run's health verdict is warn.
func captureAlerted(t *testing.T, dir string) obs.Manifest {
	t.Helper()
	c := obs.NewCapture()
	p := heb.DefaultPrototype()
	p.Capture = c
	p.Alert = alerts.ModeReport
	p.AlertRules = alerts.Rules{SoCCeiling: 0.5}
	wl, err := heb.WorkloadNamed("PR")
	if err != nil {
		t.Fatal(err)
	}
	const d = 2 * time.Hour
	if _, err := p.Run(heb.HEBD, wl.WithDuration(d), heb.RunOptions{Duration: d}); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFiles(dir); err != nil {
		t.Fatal(err)
	}
	m, err := obs.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAPIAlerts(t *testing.T) {
	root := t.TempDir()
	captureAlerted(t, root+"/alerted")
	m, ts := newTestMonitor(t, root)

	// One alert and one unrelated event on the live stream: only the
	// alert lands in the live list.
	m.stream.Emit(obs.Event{Seconds: 1, Kind: obs.EventRunStart, Server: -1, Detail: "HEB-D"})
	m.stream.Emit(obs.Event{Seconds: 2, Kind: obs.EventAlert, Server: -1,
		Watts: 0.97, Detail: "soc_ceiling/warn @battery"})

	code, body := get(t, ts.URL+"/api/alerts")
	if code != http.StatusOK {
		t.Fatalf("/api/alerts = %d: %s", code, body)
	}
	var resp struct {
		Live    []obs.Event `json:"live"`
		Dropped int64       `json:"dropped"`
		Runs    []struct {
			ID        string `json:"id"`
			Scheme    string `json:"scheme"`
			Health    string `json:"health"`
			Warnings  int    `json:"warnings"`
			Criticals int    `json:"criticals"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Live) != 1 || resp.Live[0].Kind != obs.EventAlert {
		t.Fatalf("live alerts = %+v, want exactly the alert event", resp.Live)
	}
	if len(resp.Runs) != 1 {
		t.Fatalf("unhealthy rollup = %+v, want the alerted run", resp.Runs)
	}
	r := resp.Runs[0]
	if r.Health != alerts.HealthWarn || r.Warnings == 0 || r.Criticals != 0 || r.Scheme != "HEB-D" {
		t.Fatalf("rollup row = %+v", r)
	}
}

func TestAPIScore(t *testing.T) {
	root := t.TempDir()
	m := captureTwoSeeds(t, root+"/sweep")
	_, ts := newTestMonitor(t, root)

	id := m.Runs[0].ID
	code, body := get(t, ts.URL+"/api/runs/"+id+"/score?min_cohort=2")
	if code != http.StatusOK {
		t.Fatalf("score = %d: %s", code, body)
	}
	var sc registry.RunScore
	if err := json.Unmarshal(body, &sc); err != nil {
		t.Fatal(err)
	}
	if sc.Run.ID != id || sc.Cohort != 2 || len(sc.Metrics) == 0 {
		t.Fatalf("score = %+v", sc)
	}
	if sc.Verdict == "" {
		t.Fatal("score has no verdict")
	}

	if code, _ = get(t, ts.URL+"/api/runs/ffffffffffff/score"); code != http.StatusNotFound {
		t.Fatalf("unknown run score = %d, want 404", code)
	}
	if code, _ = get(t, ts.URL+"/api/runs/"+id+"/score?window=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad window = %d, want 400", code)
	}
	if code, _ = get(t, ts.URL+"/api/runs/"+id+"/score?min_cohort=-1"); code != http.StatusBadRequest {
		t.Fatalf("bad min_cohort = %d, want 400", code)
	}
}

func TestMetricsReportSSEDrops(t *testing.T) {
	m, ts := newTestMonitor(t, "")
	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK || !strings.Contains(string(body), "heb_sse_dropped_total 0") {
		t.Fatalf("/metrics missing zero heb_sse_dropped_total: %d\n%s", code, body)
	}

	// A subscriber with a one-event buffer that never drains: the second
	// and later emits are dropped and the counter reports them.
	id, _, _ := m.stream.Subscribe(1)
	defer m.stream.Unsubscribe(id)
	for i := 0; i < 4; i++ {
		m.stream.Emit(obs.Event{Seconds: float64(i), Kind: obs.EventRunStart, Server: -1})
	}
	_, body = get(t, ts.URL+"/metrics")
	if !strings.Contains(string(body), "heb_sse_dropped_total 3") {
		t.Fatalf("/metrics did not report 3 dropped SSE events:\n%s", body)
	}
}

func TestReadyzGatesOnScan(t *testing.T) {
	m := newMonitor(16)
	ts := httptest.NewServer(m.mux())
	defer ts.Close()
	if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatal("readyz served before initial scan")
	}
	m.ready.Store(true)
	if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatal("readyz still 503 after scan")
	}
}

func TestDashboardAndMetrics(t *testing.T) {
	_, ts := newTestMonitor(t, "")
	code, body := get(t, ts.URL+"/")
	if code != http.StatusOK || !strings.Contains(string(body), "hebmon") {
		t.Fatalf("dashboard = %d", code)
	}
	code, body = get(t, ts.URL+"/metrics")
	if code != http.StatusOK || !strings.Contains(string(body), "heb_proc_heap_alloc_bytes") {
		t.Fatalf("/metrics missing heb_proc_* family: %d", code)
	}
	// The recorder API keeps its historical paths.
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatal("healthz broken")
	}
}

func TestAPIRunProfiles(t *testing.T) {
	root := t.TempDir()
	dir := root + "/sweep"
	// Profile the capture the way `hebsim -profile heap -obs dir` does:
	// collector window around the runs, then AttachProfiles.
	c := prof.NewCollector(dir, []string{"heap"})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	m := captureTwoSeeds(t, dir)
	if err := c.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := obs.AttachProfiles(dir); err != nil {
		t.Fatal(err)
	}
	_, ts := newTestMonitor(t, root)

	code, body := get(t, ts.URL+"/api/runs/"+m.Runs[0].ID+"/profiles")
	if code != http.StatusOK {
		t.Fatalf("/profiles = %d: %s", code, body)
	}
	var resp struct {
		Capture  string             `json:"capture"`
		Count    int                `json:"count"`
		Profiles []obs.ArtifactInfo `json:"profiles"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 1 || len(resp.Profiles) != 1 {
		t.Fatalf("profiles response = %+v, want one heap profile", resp)
	}
	if resp.Profiles[0].Name != "profiles/heap.pb.gz" || resp.Profiles[0].Bytes <= 0 {
		t.Errorf("profile entry = %+v", resp.Profiles[0])
	}

	if code, body := get(t, ts.URL+"/api/runs/nope/profiles"); code != http.StatusNotFound {
		t.Errorf("unknown run = %d: %s", code, body)
	}
}

func TestAPIRunProfilesEmptyForUnprofiledCapture(t *testing.T) {
	root := t.TempDir()
	m := captureTwoSeeds(t, root+"/sweep")
	_, ts := newTestMonitor(t, root)
	code, body := get(t, ts.URL+"/api/runs/"+m.Runs[0].ID+"/profiles")
	if code != http.StatusOK {
		t.Fatalf("/profiles = %d: %s", code, body)
	}
	var resp struct {
		Count    int               `json:"count"`
		Profiles []json.RawMessage `json:"profiles"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != 0 || resp.Profiles == nil || len(resp.Profiles) != 0 {
		t.Errorf("unprofiled capture response = %s", body)
	}
}
