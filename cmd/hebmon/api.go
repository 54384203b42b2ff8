package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"heb"
	"heb/internal/obs"
	"heb/internal/obs/alerts"
	"heb/internal/obs/registry"
	"heb/internal/obs/registry/baseline"
	"heb/internal/power"
)

//go:embed dashboard.html
var dashboardHTML []byte

// monitor bundles the live run (snapshot ring, summary, engine and
// runtime metrics, event stream) with the cross-run registry behind one
// mux. reg is nil when no capture root was configured; the registry
// endpoints then answer 503 so a dashboard can tell "no registry" from
// "empty registry".
type monitor struct {
	// mu guards the live run's state: observe writes it once per engine
	// tick while the HTTP handlers read it.
	mu           sync.RWMutex
	ring         obs.Ring[Snapshot]
	summary      Summary
	lastSwitches [power.NumSources]int64

	metrics  *obs.Registry
	engine   engineMetrics
	rt       *runtimeMetrics
	sseDrops *obs.Counter
	stream   *obs.EventStream
	reg      *registry.Registry
	ready    atomic.Bool

	// sseMu guards sseReported, the portion of the stream's cumulative
	// drop count already folded into sseDrops.
	sseMu       sync.Mutex
	sseReported int64
}

// newMonitor builds a monitor that keeps history snapshots, with the
// engine and runtime families on one metrics registry and no run
// registry.
func newMonitor(history int) *monitor {
	reg := obs.NewRegistry()
	return &monitor{
		ring:    obs.NewRing[Snapshot](history),
		summary: Summary{MinBatterySoC: 1, MinSupercapSoC: 1},
		metrics: reg,
		engine:  newEngineMetrics(reg),
		rt:      newRuntimeMetrics(reg),
		sseDrops: reg.Counter("heb_sse_dropped_total",
			"SSE events dropped to slow /events subscribers."),
		stream: obs.NewEventStream(0),
	}
}

// mux composes the monitor API: the live-run endpoints, the SSE event
// stream, Prometheus exposition, pprof, the run registry API and the
// embedded dashboard page. Nothing registers on the default mux.
func (m *monitor) mux() *http.ServeMux {
	mux := http.NewServeMux()
	// Unknown paths, and other methods on the GET-only routes, are a 404.
	mux.Handle("/", http.NotFoundHandler())
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write(dashboardHTML)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", m.handleReady)
	mux.HandleFunc("/latest", m.handleLatest)
	mux.HandleFunc("/history", m.handleHistory)
	mux.HandleFunc("/summary", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, m.summarize())
	})
	mux.HandleFunc("/curves", m.handleCurves)
	mux.Handle("/events", eventsHandler(m.stream))
	mux.HandleFunc("/metrics", m.handleMetrics)
	mux.HandleFunc("GET /api/alerts", m.handleAlerts)
	// The registry endpoints answer 503 while no capture root is set.
	needReg := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if m.reg == nil {
				writeText(w, http.StatusServiceUnavailable, "no capture root configured (start hebmon with -runs)\n")
				return
			}
			h(w, r)
		}
	}
	mux.HandleFunc("GET /api/runs", needReg(m.handleRuns))
	mux.HandleFunc("GET /api/runs/{id}", needReg(m.handleRun))
	mux.HandleFunc("GET /api/runs/{id}/profiles", needReg(m.handleRunProfiles))
	mux.HandleFunc("GET /api/runs/{id}/score", needReg(m.handleScore))
	mux.HandleFunc("GET /api/runs/{id}/compare/{other}", needReg(m.handleCompare))
	mux.HandleFunc("GET /api/captures", needReg(m.handleCaptures))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleMetrics serves the Prometheus exposition: it samples the Go
// runtime, folds the stream's cumulative subscriber-drop count into
// heb_sse_dropped_total (so lossy SSE delivery is visible), then writes
// the registry.
func (m *monitor) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m.rt.sample()
	m.sseMu.Lock()
	if d := m.stream.Dropped(); d > m.sseReported {
		m.sseDrops.Add(float64(d - m.sseReported))
		m.sseReported = d
	}
	m.sseMu.Unlock()
	m.metrics.Handler().ServeHTTP(w, r)
}

// handleReady answers 200 once the initial registry scan has landed
// (immediately when no registry is configured), 503 before — the
// conventional readiness gate for scripts that start hebmon and poll.
func (m *monitor) handleReady(w http.ResponseWriter, _ *http.Request) {
	if m.ready.Load() {
		writeText(w, http.StatusOK, "ready\n")
		return
	}
	writeText(w, http.StatusServiceUnavailable, "initial scan pending\n")
}

// runsResponse is the /api/runs wire form.
type runsResponse struct {
	Count int            `json:"count"`
	Runs  []registry.Run `json:"runs"`
	// Errors surfaces per-manifest scan problems so a broken capture is
	// visible, not silently missing.
	Errors []string `json:"errors,omitempty"`
}

// validStatuses is the closed set of run lifecycle states the registry
// indexes; any other ?status= value can never match and gets a 400.
var validStatuses = []string{obs.StatusRunning, obs.StatusComplete, obs.StatusFailed, obs.StatusKilled}

func (m *monitor) handleRuns(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if s := q.Get("status"); s != "" && !slices.Contains(validStatuses, s) {
		writeText(w, http.StatusBadRequest,
			fmt.Sprintf("unknown status %q (valid: %s)\n", s, strings.Join(validStatuses, ", ")))
		return
	}
	if s := q.Get("scheme"); s != "" {
		if _, err := heb.SchemeNamed(s); err != nil {
			writeText(w, http.StatusBadRequest, err.Error()+"\n")
			return
		}
	}
	runs := m.reg.Runs(registry.Filter{
		Scheme:   q.Get("scheme"),
		Workload: q.Get("workload"),
		Status:   q.Get("status"),
	})
	if runs == nil {
		runs = []registry.Run{}
	}
	writeJSON(w, runsResponse{Count: len(runs), Runs: runs, Errors: m.reg.Errors()})
}

func (m *monitor) handleRun(w http.ResponseWriter, r *http.Request) {
	run, ok := m.reg.Find(r.PathValue("id"))
	if !ok {
		writeText(w, http.StatusNotFound, "unknown run\n")
		return
	}
	writeJSON(w, run)
}

// profilesResponse is the /api/runs/{id}/profiles wire form: the pprof
// artifacts the run's capture inventoried, if any. Profiles are
// capture-scoped (one profiled hebsim process per capture), so every run
// in a capture reports the same set.
type profilesResponse struct {
	Capture  string             `json:"capture"`
	Count    int                `json:"count"`
	Profiles []obs.ArtifactInfo `json:"profiles"`
}

func (m *monitor) handleRunProfiles(w http.ResponseWriter, r *http.Request) {
	run, ok := m.reg.Find(r.PathValue("id"))
	if !ok {
		writeText(w, http.StatusNotFound, "unknown run\n")
		return
	}
	man, err := obs.ReadManifest(filepath.Join(m.reg.Root(), run.Capture))
	if err != nil {
		writeText(w, http.StatusInternalServerError, "read capture manifest: "+err.Error()+"\n")
		return
	}
	resp := profilesResponse{Capture: run.Capture, Count: len(man.Profiles), Profiles: man.Profiles}
	if resp.Profiles == nil {
		resp.Profiles = []obs.ArtifactInfo{}
	}
	writeJSON(w, resp)
}

// alertsResponse is the /api/alerts wire form: the live stream's recent
// alert events (from the SSE backlog, so it works with or without a
// registry) plus a rollup of indexed runs whose SLO verdict is
// unhealthy.
type alertsResponse struct {
	Live    []obs.Event `json:"live"`
	Dropped int64       `json:"dropped"`
	Runs    []runHealth `json:"runs,omitempty"`
}

// runHealth is one unhealthy run in the registry rollup.
type runHealth struct {
	ID        string `json:"id"`
	Scheme    string `json:"scheme,omitempty"`
	Workload  string `json:"workload,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	Health    string `json:"health"`
	Warnings  int    `json:"warnings"`
	Criticals int    `json:"criticals"`
}

func (m *monitor) handleAlerts(w http.ResponseWriter, _ *http.Request) {
	id, _, backlog := m.stream.Subscribe(1)
	m.stream.Unsubscribe(id)
	live := []obs.Event{}
	for _, e := range backlog {
		if e.Kind == obs.EventAlert {
			live = append(live, e)
		}
	}
	resp := alertsResponse{Live: live, Dropped: m.stream.Dropped()}
	if m.reg != nil {
		seen := map[string]bool{}
		for _, run := range m.reg.Runs(registry.Filter{}) {
			h := run.Summary.Health
			if h == "" || h == alerts.HealthOK || seen[run.ID] {
				continue
			}
			seen[run.ID] = true
			resp.Runs = append(resp.Runs, runHealth{
				ID: run.ID, Scheme: run.Scheme, Workload: run.Workload, Seed: run.Seed,
				Health: h, Warnings: run.Summary.AlertWarnings, Criticals: run.Summary.AlertCriticals,
			})
		}
	}
	writeJSON(w, resp)
}

func (m *monitor) handleScore(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := m.reg.Find(id); !ok {
		writeText(w, http.StatusNotFound, "unknown run\n")
		return
	}
	win := baseline.Window{}
	if q := r.URL.Query().Get("window"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeText(w, http.StatusBadRequest, "bad window\n")
			return
		}
		win.MaxN = v
	}
	if q := r.URL.Query().Get("min_cohort"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeText(w, http.StatusBadRequest, "bad min_cohort\n")
			return
		}
		win.MinN = v
	}
	sc, err := m.reg.Score(id, win)
	if err != nil {
		writeText(w, http.StatusBadRequest, err.Error()+"\n")
		return
	}
	writeJSON(w, sc)
}

func (m *monitor) handleCompare(w http.ResponseWriter, r *http.Request) {
	id, other := r.PathValue("id"), r.PathValue("other")
	for _, want := range []string{id, other} {
		if _, ok := m.reg.Find(want); !ok {
			writeText(w, http.StatusNotFound, "unknown run "+want+"\n")
			return
		}
	}
	tol := 0.0
	if q := r.URL.Query().Get("tol"); q != "" {
		v, err := strconv.ParseFloat(q, 64)
		if err != nil || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			writeText(w, http.StatusBadRequest, "bad tol (want a finite number >= 0)\n")
			return
		}
		tol = v
	}
	cmp, err := m.reg.Compare(id, other, tol)
	if err != nil {
		writeText(w, http.StatusBadRequest, err.Error()+"\n")
		return
	}
	writeJSON(w, cmp)
}

func (m *monitor) handleCaptures(w http.ResponseWriter, _ *http.Request) {
	caps := m.reg.Captures()
	if caps == nil {
		caps = []registry.Capture{}
	}
	writeJSON(w, caps)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func writeText(w http.ResponseWriter, code int, body string) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	_, _ = w.Write([]byte(body))
}
