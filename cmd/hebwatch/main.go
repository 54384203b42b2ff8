// Command hebwatch is the regression sentinel over recorded runs: it
// scores captures against statistical fleet baselines and flags the
// outliers. Populations are grouped per (scheme, workload) and located
// with median/MAD robust statistics (internal/obs/registry/baseline);
// a run whose metric sits WarnZ/CriticalZ robust z-scores from its
// cohort median is flagged, and a run whose own SLO alert verdict is
// unhealthy is escalated regardless of how unremarkable its metrics
// look.
//
// Subcommands:
//
//	hebwatch score [-run ID] [-window N] [-min-cohort N] root/
//	    Scan the capture tree under root and score every complete run
//	    against its cohort (or only the run named by -run). Prints one
//	    line per run and a summary; exits 1 when any run scores
//	    critical.
//
//	hebwatch diff [-window N] [-min-cohort N] rootA/ rootB/
//	    Compare two capture trees cohort-by-cohort: for every (scheme,
//	    workload, metric) present on both sides, B's median is scored
//	    against A's population. Exits 1 on any critical drift.
//
//	hebwatch bench [-ns-tol R] current.json baseline.json
//	    Check benchmark drift between two BENCH_*.json files as written
//	    by scripts/bench.sh (this is the gate bench.sh -check runs):
//	    allocs/op must match exactly (allocation counts are
//	    deterministic) except for the MultiSeed* and EngineProf* rows,
//	    which get ±allocSlack (sync.Pool clears and pprof sampling
//	    buffers wobble); ns/op may grow by at most R (default 1.5).
//	    When baseline.json is a
//	    BENCH_prof.json profile baseline (a "frames" array), current is
//	    instead a pprof file or capture dir and the comparison runs
//	    cmd/hebprof's frame gate. Exits 1 on any violation.
//
// Exit status: 0 clean, 1 critical findings, 2 on usage or read errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"heb/internal/obs"
	"heb/internal/obs/prof"
	"heb/internal/obs/registry"
	"heb/internal/obs/registry/baseline"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var criticals int
	var err error
	switch os.Args[1] {
	case "score":
		fs := flag.NewFlagSet("score", flag.ExitOnError)
		window := fs.Int("window", 0, "limit each baseline population to its last N runs (0 = all)")
		minCohort := fs.Int("min-cohort", 0, fmt.Sprintf("override the minimum population size (default %d)", baseline.MinCohort))
		runID := fs.String("run", "", "score only this run ID")
		fs.Parse(os.Args[2:])
		if fs.NArg() != 1 {
			usage()
		}
		criticals, err = score(os.Stdout, fs.Arg(0), *runID, baseline.Window{MaxN: *window, MinN: *minCohort})
	case "diff":
		fs := flag.NewFlagSet("diff", flag.ExitOnError)
		window := fs.Int("window", 0, "limit each baseline population to its last N runs (0 = all)")
		minCohort := fs.Int("min-cohort", 0, fmt.Sprintf("override the minimum population size (default %d)", baseline.MinCohort))
		fs.Parse(os.Args[2:])
		if fs.NArg() != 2 {
			usage()
		}
		criticals, err = diff(os.Stdout, fs.Arg(0), fs.Arg(1), baseline.Window{MaxN: *window, MinN: *minCohort})
	case "bench":
		fs := flag.NewFlagSet("bench", flag.ExitOnError)
		nsTol := fs.Float64("ns-tol", 1.5, "maximum allowed ns/op growth factor")
		fs.Parse(os.Args[2:])
		if fs.NArg() != 2 {
			usage()
		}
		// A baseline with a "frames" array is a BENCH_prof.json profile
		// baseline, not a timings file: route to the profile comparator.
		if prof.IsBaselineFile(fs.Arg(1)) {
			criticals, err = benchProf(os.Stdout, fs.Arg(0), fs.Arg(1))
		} else {
			criticals, err = bench(os.Stdout, fs.Arg(0), fs.Arg(1), *nsTol)
		}
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hebwatch:", err)
		os.Exit(2)
	}
	if criticals > 0 {
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: hebwatch score [-run ID] [-window N] [-min-cohort N] root/
       hebwatch diff [-window N] [-min-cohort N] rootA/ rootB/
       hebwatch bench [-ns-tol R] current.json baseline.json`)
	os.Exit(2)
}

// score scans root and classifies every complete run (or just runID)
// against its cohort; it returns the number of critical verdicts.
func score(w io.Writer, root, runID string, win baseline.Window) (int, error) {
	r := registry.New(root)
	if err := r.Scan(); err != nil {
		return 0, err
	}
	var targets []registry.Run
	if runID != "" {
		run, ok := r.Find(runID)
		if !ok {
			return 0, fmt.Errorf("unknown run %q under %s", runID, root)
		}
		targets = []registry.Run{run}
	} else {
		seen := map[string]bool{}
		for _, run := range r.Runs(registry.Filter{Status: obs.StatusComplete}) {
			if run.Key == "" || seen[run.ID] {
				continue
			}
			seen[run.ID] = true
			targets = append(targets, run)
		}
	}
	counts := map[string]int{}
	for _, run := range targets {
		sc, err := r.Score(run.ID, win)
		if err != nil {
			return 0, err
		}
		counts[sc.Verdict]++
		line := fmt.Sprintf("%s %-8s %-4s seed=%-3d cohort=%-3d verdict=%s",
			sc.Run.ID, sc.Run.Scheme, sc.Run.Workload, sc.Run.Seed, sc.Cohort, sc.Verdict)
		if sc.Health != "" {
			line += " health=" + sc.Health
		}
		if m, ok := worstMetric(sc); ok {
			line += fmt.Sprintf("  worst=%s z=%+.2f (%.6g vs median %.6g)", m.Name, m.Z, m.Value, m.Median)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "hebwatch: %d runs scored: %d critical, %d warn, %d ok, %d unjudged\n",
		len(targets), counts[baseline.VerdictCritical], counts[baseline.VerdictWarn],
		counts[baseline.VerdictOK], counts[baseline.VerdictNoBaseline])
	return counts[baseline.VerdictCritical], nil
}

// worstMetric picks the scored metric with the largest |z| among those
// that had a baseline to judge against.
func worstMetric(sc registry.RunScore) (registry.MetricScore, bool) {
	best, found := registry.MetricScore{}, false
	for _, m := range sc.Metrics {
		if m.Verdict == baseline.VerdictNoBaseline {
			continue
		}
		if !found || math.Abs(m.Z) > math.Abs(best.Z) {
			best, found = m, true
		}
	}
	return best, found
}

// diff scores capture tree B's cohorts against tree A's; it returns the
// number of critical drifts.
func diff(w io.Writer, rootA, rootB string, win baseline.Window) (int, error) {
	va, err := cohortValues(rootA)
	if err != nil {
		return 0, err
	}
	vb, err := cohortValues(rootB)
	if err != nil {
		return 0, err
	}
	keys := make(map[string]bool, len(va)+len(vb))
	for k := range va {
		keys[k] = true
	}
	for k := range vb {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	criticals, warns := 0, 0
	for _, k := range sorted {
		a, okA := va[k]
		b, okB := vb[k]
		if !okA || !okB {
			side := rootA
			if okB {
				side = rootB
			}
			fmt.Fprintf(w, "%s: only in %s\n", k, side)
			continue
		}
		sc := baseline.ScoreValue(baseline.Median(b), a, win)
		switch sc.Verdict {
		case baseline.VerdictCritical:
			criticals++
		case baseline.VerdictWarn:
			warns++
		default:
			continue
		}
		fmt.Fprintf(w, "%s: median %.6g -> %.6g z=%+.2f %s\n", k, sc.Median, sc.Value, sc.Z, sc.Verdict)
	}
	fmt.Fprintf(w, "hebwatch: %d cohort metrics compared: %d critical, %d warn\n",
		len(sorted), criticals, warns)
	return criticals, nil
}

// cohortValues gathers every complete run's metrics under root, keyed
// "scheme|workload|metric", deduplicated by run ID in registry order so
// the populations are deterministic for any scan.
func cohortValues(root string) (map[string][]float64, error) {
	r := registry.New(root)
	if err := r.Scan(); err != nil {
		return nil, err
	}
	out := map[string][]float64{}
	seen := map[string]bool{}
	for _, run := range r.Runs(registry.Filter{Status: obs.StatusComplete}) {
		if run.Key == "" || seen[run.ID] {
			continue
		}
		seen[run.ID] = true
		names := make([]string, 0, len(run.Summary.Metrics))
		for name := range run.Summary.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			k := run.Scheme + "|" + run.Workload + "|" + name
			out[k] = append(out[k], run.Summary.Metrics[name])
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no complete runs under %s", root)
	}
	return out, nil
}

// benchFile mirrors the JSON scripts/bench.sh writes; null columns stay
// nil.
type benchFile struct {
	Benchmarks []benchRow `json:"benchmarks"`
}

type benchRow struct {
	Name   string   `json:"name"`
	Ns     *float64 `json:"ns_per_op"`
	Allocs *float64 `json:"allocs_per_op"`
}

// allocSlack is the absolute allocs/op tolerance for benchmarks whose
// counts are not deterministic: the multi-seed pair's pooled run state
// rides sync.Pools the GC may clear mid-run, and the EngineProf rows'
// runtime/pprof sampling buffers grow with the sample count.
const allocSlack = 8

// allocTolerance is the allowed |allocs/op - baseline| for a benchmark.
func allocTolerance(name string) float64 {
	if strings.Contains(name, "MultiSeed") || strings.Contains(name, "EngineProf") {
		return allocSlack
	}
	return 0
}

// bench compares two bench.sh JSON files: allocs/op exact (within
// allocTolerance), ns/op within nsTol×. Every violation is critical.
func bench(w io.Writer, curPath, basePath string, nsTol float64) (int, error) {
	cur, err := loadBench(curPath)
	if err != nil {
		return 0, err
	}
	base, err := loadBench(basePath)
	if err != nil {
		return 0, err
	}
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)

	criticals := 0
	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			fmt.Fprintf(w, "%s: in baseline but not measured\n", name)
			criticals++
			continue
		}
		if b.Allocs != nil && c.Allocs != nil {
			if slack := allocTolerance(name); math.Abs(*c.Allocs-*b.Allocs) > slack {
				if slack > 0 {
					fmt.Fprintf(w, "%s: allocs/op %g, baseline %g (pool-wobble slack is ±%g)\n", name, *c.Allocs, *b.Allocs, slack)
				} else {
					fmt.Fprintf(w, "%s: allocs/op %g, baseline %g (must match exactly)\n", name, *c.Allocs, *b.Allocs)
				}
				criticals++
			}
		}
		if b.Ns != nil && c.Ns != nil && *b.Ns > 0 && *c.Ns > *b.Ns*nsTol {
			fmt.Fprintf(w, "%s: ns/op %g exceeds baseline %g by more than %gx\n", name, *c.Ns, *b.Ns, nsTol)
			criticals++
		}
	}
	verdict := "within tolerance"
	if criticals > 0 {
		verdict = "REGRESSED"
	}
	fmt.Fprintf(w, "hebwatch: %d benchmarks vs %s: %s (%d findings, allocs exact or ±%d pool slack, ns/op <= %gx)\n",
		len(names), basePath, verdict, criticals, allocSlack, nsTol)
	return criticals, nil
}

// benchProf gates a current profile against a committed BENCH_prof.json
// top-frames baseline with cmd/hebprof's check semantics (shared
// prof.Check, default thresholds). curPath is a pprof proto file (e.g. a
// `go test -memprofile` output) or a capture directory holding
// profiles/. Every violation is critical.
func benchProf(w io.Writer, curPath, basePath string) (int, error) {
	b, err := prof.ReadBaseline(basePath)
	if err != nil {
		return 0, err
	}
	sample := strings.SplitN(b.Sample, "/", 2)[0]
	path := curPath
	if info, serr := os.Stat(curPath); serr == nil && info.IsDir() {
		path = filepath.Join(curPath, prof.Dir, prof.FileName(kindForSample(sample)))
	}
	p, err := prof.ParseFile(path)
	if err != nil {
		return 0, err
	}
	r, err := prof.NewRollup([]*prof.Profile{p}, sample, "")
	if err != nil {
		return 0, err
	}
	viol := prof.Check(b, r, prof.DefaultCheckOpts())
	for _, v := range viol {
		fmt.Fprintf(w, "%s\n", v)
	}
	verdict := "within tolerance"
	if len(viol) > 0 {
		verdict = "REGRESSED"
	}
	fmt.Fprintf(w, "hebwatch: profile %s vs %s (%d frames, sample %s): %s (%d findings)\n",
		path, basePath, len(b.Frames), b.Sample, verdict, len(viol))
	return len(viol), nil
}

// kindForSample maps a baseline's sample-type name to the capture
// profile kind that carries it.
func kindForSample(sample string) string {
	switch sample {
	case "alloc_space", "alloc_objects":
		return "allocs"
	case "inuse_space", "inuse_objects":
		return "heap"
	case "contentions", "delay":
		return "mutex"
	default:
		return "cpu"
	}
}

func loadBench(path string) (map[string]benchRow, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	out := make(map[string]benchRow, len(f.Benchmarks))
	for _, b := range f.Benchmarks {
		if strings.TrimSpace(b.Name) == "" {
			return nil, fmt.Errorf("%s: benchmark with empty name", path)
		}
		out[b.Name] = b
	}
	return out, nil
}
