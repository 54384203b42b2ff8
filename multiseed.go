package heb

import (
	"fmt"
	"io"
	"sort"
	"time"

	"heb/internal/stats"
)

// MultiSeedResult carries per-scheme metric distributions over repeated
// runs with different workload seeds — the confidence-interval view of
// the Figure 12 comparison that a single prototype run cannot give.
type MultiSeedResult struct {
	Scheme SchemeID
	// EE, Downtime and BatteryLife summarize the per-seed samples.
	EE, Downtime, BatteryLife stats.Summary
}

// MultiSeedOptions tune the repeated comparison.
type MultiSeedOptions struct {
	// Seeds is how many independent seeds to run (default 5).
	Seeds int
	// Duration is simulated time per run (default 8h).
	Duration time.Duration
	// Workload names the Table 1 workload (default PR).
	Workload string
	// Schemes defaults to BaOnly, SCFirst, HEB-D.
	Schemes []SchemeID
	// Workers bounds the sweep's worker pool (<= 0 means GOMAXPROCS).
	// The seed × scheme grid is embarrassingly parallel; results are
	// accumulated in grid order, so summaries are bit-for-bit identical
	// for any worker count.
	Workers int
}

// MultiSeedComparison reruns the scheme comparison across seeds and
// summarizes each metric with mean, spread and 95% confidence interval.
// The seed × scheme grid runs on the shared bounded worker pool.
func MultiSeedComparison(p Prototype, opts MultiSeedOptions) ([]MultiSeedResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opts.Seeds == 0 {
		opts.Seeds = 5
	}
	if opts.Seeds < 2 {
		return nil, fmt.Errorf("heb: multi-seed comparison needs >= 2 seeds")
	}
	if opts.Duration == 0 {
		opts.Duration = 8 * time.Hour
	}
	if opts.Workload == "" {
		opts.Workload = "PR"
	}
	if len(opts.Schemes) == 0 {
		opts.Schemes = []SchemeID{BaOnly, SCFirst, HEBD}
	}

	w, err := WorkloadNamed(opts.Workload)
	if err != nil {
		return nil, err
	}
	w = w.WithDuration(opts.Duration)
	// The seed-major grid: run i is seed i/len(schemes) of scheme
	// i%len(schemes). Only the seed differs between a scheme's runs, so
	// each worker resets one pooled engine per scheme instead of
	// rebuilding it.
	nSchemes := len(opts.Schemes)
	runs := make([]sweepRun, 0, opts.Seeds*nSchemes)
	for s := 0; s < opts.Seeds; s++ {
		pp := p
		pp.Seed = p.Seed + int64(s)*7919
		for _, id := range opts.Schemes {
			runs = append(runs, sweepRun{pp, id, w, RunOptions{Duration: opts.Duration}})
		}
	}
	results, err := sweep(runs, opts.Workers)
	if err != nil {
		return nil, err
	}

	type acc struct{ ee, down, life *stats.Sample }
	samples := map[SchemeID]acc{}
	for _, id := range opts.Schemes {
		samples[id] = acc{stats.New(), stats.New(), stats.New()}
	}
	for i, res := range results {
		a := samples[opts.Schemes[i%nSchemes]]
		a.ee.Add(res.EnergyEfficiency)
		a.down.Add(res.DowntimeServerSeconds)
		a.life.Add(res.BatteryLifetimeYears)
	}

	out := make([]MultiSeedResult, 0, len(opts.Schemes))
	for _, id := range opts.Schemes {
		a := samples[id]
		out = append(out, MultiSeedResult{
			Scheme:      id,
			EE:          a.ee.Summarize(),
			Downtime:    a.down.Summarize(),
			BatteryLife: a.life.Summarize(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Scheme < out[j].Scheme })
	return out, nil
}

// WriteMultiSeed renders the distributions.
func WriteMultiSeed(w io.Writer, results []MultiSeedResult) error {
	if len(results) == 0 {
		return fmt.Errorf("heb: nothing to report")
	}
	if _, err := fmt.Fprintf(w, "%-8s %-28s %-32s %-26s\n",
		"scheme", "EE (mean ± CI95)", "downtime server-s", "battery life y"); err != nil {
		return err
	}
	for _, r := range results {
		if _, err := fmt.Fprintf(w, "%-8v %-28s %-32s %-26s\n",
			r.Scheme, r.EE, r.Downtime, r.BatteryLife); err != nil {
			return err
		}
	}
	return nil
}
