package main

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"heb"
	"heb/internal/sim"
	"heb/internal/units"
)

// cell is one simulation the benchmark runs: a scheme on a Table 1
// workload at a seed, on the default prototype grown by factor.
type cell struct {
	Scheme heb.SchemeID
	WL     string
	Seed   int64
	Factor int
	Dur    time.Duration
}

func (c cell) key() string {
	return fmt.Sprintf("%v|%s|seed=%d|x%d|%v", c.Scheme, c.WL, c.Seed, c.Factor, c.Dur)
}

// proto is the cell's prototype with every engine hook off. Servers,
// budget, storage, strings and banks grow together, as heb.ScaleOutStudy
// grows them.
func (c cell) proto() heb.Prototype {
	p := heb.DefaultPrototype()
	p.Seed = c.Seed
	f := c.Factor
	p.NumServers *= f
	p.Budget = units.Power(float64(p.Budget) * float64(f))
	p.StorageWh *= float64(f)
	p.BatteryStrings *= f
	p.SCBanks *= f
	return p
}

func (c cell) workload() (heb.Workload, error) {
	w, err := heb.WorkloadNamed(c.WL)
	if err != nil {
		return heb.Workload{}, err
	}
	return w.WithDuration(c.Dur), nil
}

// steps is the engine step count a complete run of the cell executes.
func (c cell) steps() int { return int(c.Dur / c.proto().Step) }

// tableWorkloads are the eight Table 1 workloads in paper order.
var tableWorkloads = []string{"PR", "WC", "DA", "WS", "MS", "DFS", "HB", "TS"}

// spec describes one benchmark workload.
type spec struct {
	Workers int
	// Cells is one pass of the closed loop, in grid order.
	Cells []cell
	// Flight makes every cell a record op plus a resume op with every
	// engine hook on; otherwise cells run with every hook off.
	Flight bool
	// Probe lists the cells the flight probe records and resumes after
	// the timed phase of a non-flight workload, so that every workload
	// reports the resume and capture metrics for cells of its own kind.
	// They span several seeds so that one seed's cell does not set them.
	Probe []cell
}

// sweepSeeds, scaleSeeds and probeSeeds are how many seeds the sweep
// grid, the scale grid and a flight probe span. A run's figures then
// average over that many workload realizations, which keeps them steady
// from one --seed to the next.
const (
	sweepSeeds = 8
	scaleSeeds = 2
	probeSeeds = 8
)

// flightSeeds gives HEB-D twice BaOnly's cells. With equal shares the
// median fell between the two schemes' groups of resume times, and moved
// with the slowest BaOnly and fastest HEB-D op of each run; with a 2:1
// split it falls inside the HEB-D group.
var flightSeeds = map[heb.SchemeID]int{heb.HEBD: 4, heb.BaOnly: 2}

// probeReps is how many record and resume ops a flight probe runs per
// probe cell.
const probeReps = 2

// derived returns the i-th seed derived from seed.
func derived(seed int64, i int) int64 { return seed + int64(i)*seedStride }

// probeCells is c at probeSeeds derived seeds.
func probeCells(c cell) []cell {
	out := make([]cell, probeSeeds)
	for i := range out {
		out[i] = c
		out[i].Seed = derived(c.Seed, i)
	}
	return out
}

// seedStride separates derived seeds, as heb.MultiSeedComparison does.
const seedStride = 7919

// scaleFactors and scaleWorkloads span the scale grid. Cell times fall in
// groups by factor, and within a factor by workload. An odd count of
// each puts the median cell in the middle workload's group of the middle
// factor, rather than on a boundary between two groups: with PR and MS
// alone the median sat between the x4 MS and x4 PR cells and moved 7%.
var (
	scaleFactors   = []int{1, 2, 4, 8, 16}
	scaleWorkloads = []string{"PR", "DA", "MS"}
)

func specFor(name string, seed int64) (spec, error) {
	switch name {
	case "sweep":
		s := spec{Workers: 2}
		for i := 0; i < sweepSeeds; i++ {
			for _, id := range heb.AllSchemes() {
				for _, wl := range tableWorkloads {
					s.Cells = append(s.Cells, cell{id, wl, derived(seed, i), 1, 6 * time.Hour})
				}
			}
		}
		// The probe cells run 2 h, not the grid's 6 h, to keep the probe
		// to a few seconds.
		s.Probe = probeCells(cell{heb.HEBD, "PR", seed, 1, 2 * time.Hour})
		return s, nil
	case "scale":
		s := spec{Workers: 1}
		for i := 0; i < scaleSeeds; i++ {
			for _, f := range scaleFactors {
				for _, id := range []heb.SchemeID{heb.HEBD, heb.HEBS, heb.SCFirst} {
					for _, wl := range scaleWorkloads {
						s.Cells = append(s.Cells, cell{id, wl, derived(seed, i), f, time.Hour})
					}
				}
			}
		}
		// The probe is the largest table-free cell: a HEB-D one at scale
		// spends its resume re-seeding the PAT, whose cost moves with the
		// host far less than the rest of the benchmark does.
		s.Probe = probeCells(cell{heb.SCFirst, "PR", seed, 16, time.Hour})
		return s, nil
	case "flight":
		s := spec{Workers: 1, Flight: true}
		for _, id := range []heb.SchemeID{heb.HEBD, heb.BaOnly} {
			for i := 0; i < flightSeeds[id]; i++ {
				for _, wl := range tableWorkloads {
					s.Cells = append(s.Cells, cell{id, wl, derived(seed, i), 1, 2 * time.Hour})
				}
			}
		}
		return s, nil
	}
	return spec{}, fmt.Errorf("unknown workload %q (want sweep, scale or flight)", name)
}

// outcome is the part of a cell's simulated result the correctness oracle
// pins bit for bit.
type outcome struct {
	EE       exact    `json:"ee"`
	Downtime exact    `json:"downtime_s"`
	Lifetime exact    `json:"lifetime_y"`
	Steps    int      `json:"steps"`
	Mismatch int      `json:"mismatch_steps"`
	Relays   [4]int64 `json:"relay_switches"`
}

func outcomeOf(r sim.Result) outcome {
	o := outcome{
		EE:       exact(r.EnergyEfficiency),
		Downtime: exact(r.DowntimeServerSeconds),
		Lifetime: exact(r.BatteryLifetimeYears),
		Steps:    r.Steps,
		Mismatch: r.MismatchSteps,
	}
	copy(o.Relays[:], r.RelaySwitches[:])
	return o
}

// equal compares bit for bit, so NaN equals NaN and 0 differs from -0.
func (o outcome) equal(p outcome) bool {
	return o.EE.same(p.EE) && o.Downtime.same(p.Downtime) && o.Lifetime.same(p.Lifetime) &&
		o.Steps == p.Steps && o.Mismatch == p.Mismatch && o.Relays == p.Relays
}

// exact is a float64 that survives a JSON round trip bit for bit,
// including the infinities a wear-free battery's lifetime can take.
type exact float64

func (e exact) same(f exact) bool {
	return math.Float64bits(float64(e)) == math.Float64bits(float64(f))
}

func (e exact) MarshalJSON() ([]byte, error) {
	return strconv.AppendQuote(nil, strconv.FormatFloat(float64(e), 'g', -1, 64)), nil
}

func (e *exact) UnmarshalJSON(b []byte) error {
	s, err := strconv.Unquote(string(b))
	if err != nil {
		return fmt.Errorf("exact float: %w", err)
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("exact float: %w", err)
	}
	*e = exact(f)
	return nil
}
