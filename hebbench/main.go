// Command hebbench is the repository's benchmark. It runs one workload as
// a closed loop of simulation cells for a fixed time, checks every cell's
// simulated result, and prints the end-to-end metrics (or, with -trace 1,
// the per-layer ledger) as one JSON object on the last line of standard
// output. See README.md for the workloads and metrics.
//
//	go run . --workload sweep --seed 42 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// outDir holds what a run leaves behind (capture scratch files, spans),
// relative to the directory the benchmark runs in.
const outDir = ".bench_build/hebbench"

func main() {
	var (
		workload = flag.String("workload", "sweep", "workload: sweep, scale or flight")
		seed     = flag.Int64("seed", referenceSeed, "workload seed")
		seconds  = flag.Int("seconds", 20, "length of the timed phase in seconds")
		traced   = flag.Int("trace", 0, "1: report the per-layer ledger instead of the end-to-end metrics")
		writeRef = flag.String("write-reference", "", "run every cell at the reference seed hooks off and write the results to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the timed phase to this file")
	)
	flag.Parse()
	if *writeRef != "" {
		if err := writeReference(*writeRef); err != nil {
			fmt.Fprintln(os.Stderr, "hebbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "hebbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	code, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *cpuProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hebbench:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func run(name string, seed int64, dur time.Duration, traced bool, cpuProf string) (int, error) {
	s, err := specFor(name, seed)
	if err != nil {
		return 0, err
	}
	scratch := filepath.Join(outDir, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	defer os.RemoveAll(scratch)
	b := &bench{spec: s, seed: seed, dir: scratch}

	setupS, genMs, err := b.setup()
	if err != nil {
		return 0, err
	}
	b.warmUp()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	if cpuProf != "" {
		f, err := os.Create(cpuProf)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return 0, err
		}
	}
	ph := b.timed(dur, tr)
	if cpuProf != "" {
		pprof.StopCPUProfile()
	}
	var probes []op
	if !s.Flight {
		probes = b.probe(tr)
	}

	defs := endToEnd
	var vals map[string]float64
	var notes []string
	if traced {
		lt, err := b.replay(tr)
		if err != nil {
			return 0, err
		}
		var tapNs map[string]float64
		if s.Flight {
			if tapNs, err = b.tapCosts(tr); err != nil {
				return 0, err
			}
		}
		var diverged []string
		vals, diverged = b.perLayerMetrics(tr, ph, probes, genMs, lt, tapNs)
		if len(diverged) > 0 {
			notes = append(notes, fmt.Sprintf("replay diverged, left unattributed: %v", diverged))
		}
		spans := filepath.Join(outDir, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
		if err := tr.write(spans); err != nil {
			return 0, err
		}
		notes = append(notes, "spans written to "+spans)
		defs = perLayer
	} else {
		var note string
		vals, note = b.endToEnd(setupS, ph, probes)
		notes = append(notes, note)
	}

	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]value{}}
	fmt.Printf("workload %s seed %d: %d ops in %.1fs on %d worker(s)\n", name, seed, len(ph.Ops), ph.Wall.Seconds(), s.Workers)
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return 0, fmt.Errorf("metric %s not computed", d.Name)
		}
		res.Metrics[d.Name] = value{v, d.Unit}
		fmt.Printf("  %-32s %14.6g %-9s (%s is better)\n", d.Name, v, d.Unit, d.Better)
	}
	for _, n := range notes {
		fmt.Println("  note:", n)
	}
	fmt.Printf("  fail_ratio %d/%d\n", b.failed, b.attempted)
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "hebbench: FAIL", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 0, err
	}
	fmt.Println(string(line))
	if b.failed > 0 {
		return 1, nil
	}
	return 0, nil
}

// writeReference records every cell of every workload at the reference
// seed, hooks off and unpooled, as the correctness oracle.
func writeReference(path string) error {
	ref := map[string]outcome{}
	for _, name := range []string{"sweep", "scale", "flight"} {
		s, err := specFor(name, referenceSeed)
		if err != nil {
			return err
		}
		for _, c := range append(s.Cells, s.Probe...) {
			res, err := runCell(nil, 0, c)
			if err != nil {
				return err
			}
			ref[c.key()] = outcomeOf(res)
		}
	}
	out, err := json.MarshalIndent(ref, "", " ") // sorted by cell key
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
