// Package telemetry implements the prototype's real-time running-state
// monitor (Figure 11, item 5): a bounded in-memory recorder of simulator
// step snapshots with an HTTP API for dashboards and scripts.
//
// Endpoints:
//
//	GET /healthz  -> 200 "ok"
//	GET /latest   -> most recent snapshot as JSON
//	GET /history  -> last N snapshots as a JSON array (?n= >= 1, default 60)
//	GET /summary  -> aggregate counters since start
//	GET /curves   -> demand/SoC sparklines as plain text (?w= width)
package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"heb/internal/ascii"
	"heb/internal/obs"
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

// Summary aggregates counters over the recorder's lifetime.
type Summary struct {
	Steps          int     `json:"steps"`
	MismatchSteps  int     `json:"mismatch_steps"`
	PeakDemandW    float64 `json:"peak_demand_w"`
	MinBatterySoC  float64 `json:"min_battery_soc"`
	MinSupercapSoC float64 `json:"min_supercap_soc"`
	ShedServerObs  int     `json:"shed_server_observations"`
}

// Recorder is a bounded ring of snapshots, safe for concurrent use: the
// simulation goroutine records while HTTP handlers read.
type Recorder struct {
	mu      sync.RWMutex
	ring    obs.Ring[Snapshot]
	summary Summary
}

// NewRecorder builds a recorder holding up to capacity snapshots.
func NewRecorder(capacity int) (*Recorder, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("telemetry: capacity %d must be positive", capacity)
	}
	return &Recorder{
		ring: obs.NewRing[Snapshot](capacity),
		summary: Summary{
			MinBatterySoC:  1,
			MinSupercapSoC: 1,
		},
	}, nil
}

// MustNewRecorder is NewRecorder for known-good capacities.
func MustNewRecorder(capacity int) *Recorder {
	r, err := NewRecorder(capacity)
	if err != nil {
		panic(err)
	}
	return r
}

// Observer returns the callback to plug into sim.Config.Observer.
func (r *Recorder) Observer() func(sim.StepInfo) {
	return func(s sim.StepInfo) { r.Record(fromStep(s)) }
}

// Record appends a snapshot.
func (r *Recorder) Record(s Snapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ring.Push(s)
	r.summary.Steps++
	if s.Mismatch {
		r.summary.MismatchSteps++
	}
	if s.DemandW > r.summary.PeakDemandW {
		r.summary.PeakDemandW = s.DemandW
	}
	if s.BatterySoC < r.summary.MinBatterySoC {
		r.summary.MinBatterySoC = s.BatterySoC
	}
	if s.SupercapSoC < r.summary.MinSupercapSoC {
		r.summary.MinSupercapSoC = s.SupercapSoC
	}
	r.summary.ShedServerObs += s.Off
}

// Len returns the number of snapshots currently held.
func (r *Recorder) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ring.Len()
}

// Latest returns the most recent snapshot.
func (r *Recorder) Latest() (Snapshot, bool) {
	r.mu.RLock()
	last := r.ring.Last(1)
	r.mu.RUnlock()
	if len(last) == 0 {
		return Snapshot{}, false
	}
	return last[0], true
}

// History returns up to n most recent snapshots, oldest first. n <= 0
// means "everything held" — History(0) is the idiomatic way to drain the
// full ring. Note the HTTP /history endpoint does NOT share this
// convention: there n must be a positive integer and ?n=0 is rejected
// with 400, so that a client typo never accidentally requests the whole
// (potentially large) ring.
func (r *Recorder) History(n int) []Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ring.Last(n)
}

// Summary returns the aggregate counters.
func (r *Recorder) Summary() Summary {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.summary
}

// Handler returns the monitor's HTTP API.
func (r *Recorder) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/latest", func(w http.ResponseWriter, _ *http.Request) {
		s, ok := r.Latest()
		if !ok {
			http.Error(w, "no snapshots yet", http.StatusNotFound)
			return
		}
		writeJSON(w, s)
	})
	mux.HandleFunc("/history", func(w http.ResponseWriter, req *http.Request) {
		n := 60
		if q := req.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v <= 0 {
				http.Error(w, "bad n", http.StatusBadRequest)
				return
			}
			n = v
		}
		writeJSON(w, r.History(n))
	})
	mux.HandleFunc("/summary", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, r.Summary())
	})
	mux.HandleFunc("/curves", func(w http.ResponseWriter, req *http.Request) {
		width := 80
		if q := req.URL.Query().Get("w"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v <= 0 {
				http.Error(w, "bad w", http.StatusBadRequest)
				return
			}
			width = v
		}
		hist := r.History(0)
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
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
