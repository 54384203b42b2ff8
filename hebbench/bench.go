package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"heb"
	"heb/internal/obs"
	"heb/internal/obs/alerts"
	"heb/internal/sim"
)

// referenceSeed is the seed the committed reference results were taken at.
const referenceSeed = 42

//go:embed reference.json
var referenceJSON []byte

// probeEvery is the flight recorder's probe cadence in engine steps.
const probeEvery = 60

// setupReps is how many times the set-up is repeated; setup_s is the median.
const setupReps = 31

// paperEEGainPct is the paper's headline HEB-D over BaOnly energy
// efficiency gain.
const paperEEGainPct = 39.7

// op is one timed closed-loop operation: a cell, and for flight cells
// also the resume of the cell's recorded chain.
type op struct {
	Cell       int
	Worker     int
	Start, End time.Duration
	Traced     bool
	Fresh      bool
	// CellNs is the whole cell op; RunNs the RunWith call inside it.
	CellNs, RunNs int64
	// Steps counts every engine step the op executed; CellSteps those of
	// the RunWith call.
	Steps, CellSteps int
	Mismatch         int
	Relays           int64
	// Slow is the host's slowdown measured just before the op (see
	// slowdown), ResumeSlow the one just before a flight op's resume, and
	// SlowAfter the first one after the op ends.
	Slow, ResumeSlow, SlowAfter float64
	// Flight ops only.
	ResumeNs     int64
	CaptureBytes int64
	CkptBytes    int64
	CkptRecords  int
	CkptDeltas   int
	Events       int
}

// bench runs one workload.
type bench struct {
	spec spec
	seed int64
	dir  string // scratch space for capture files, inside the checkout
	ref  map[string]outcome

	// warm holds each cell's hooks-off result from the untimed warm-up
	// pass; timed cells, flight records and resumes must reproduce it.
	warm map[string]sim.Result

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
}

// check counts one attempted operation and, when err is set, one failure.
func (b *bench) check(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.failures) < 20 {
			b.failures = append(b.failures, err.Error())
		}
	}
}

// loadReference parses the committed reference results.
func loadReference() (map[string]outcome, error) {
	ref := map[string]outcome{}
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference results: %w", err)
	}
	return ref, nil
}

// setup synthesizes every trace the workload needs into the trace cache
// and loads the reference results, setupReps times over a cold cache. It
// returns each repetition's speed-normalized time in seconds and each
// trace synthesis's raw time in ms; the last repetition leaves the cache
// filled.
func (b *bench) setup() (setupS, genMs []float64, err error) {
	type traceKey struct {
		wl     string
		seed   int64
		factor int
		dur    time.Duration
	}
	var need []cell
	seen := map[traceKey]bool{}
	cells := b.spec.Cells
	for _, c := range cells {
		k := traceKey{c.WL, c.Seed, c.Factor, c.Dur}
		if !seen[k] {
			seen[k] = true
			need = append(need, c)
		}
	}
	for rep := 0; rep < setupReps; rep++ {
		heb.ResetTraceCache()
		slow := slowdown()
		start := time.Now()
		ref, err := loadReference()
		if err != nil {
			return nil, nil, err
		}
		for _, c := range need {
			w, err := c.workload()
			if err != nil {
				return nil, nil, err
			}
			t0 := time.Now()
			if _, err := w.Trace(c.proto()); err != nil {
				return nil, nil, fmt.Errorf("%s: trace: %w", c.key(), err)
			}
			genMs = append(genMs, float64(time.Since(t0).Nanoseconds())/1e6)
		}
		setupS = append(setupS, time.Since(start).Seconds()/slow)
		if b.seed == referenceSeed {
			b.ref = ref
		}
	}
	return setupS, genMs, nil
}

// runCell runs c with every engine hook off.
func runCell(cache *heb.RunCache, worker int, c cell) (sim.Result, error) {
	w, err := c.workload()
	if err != nil {
		return sim.Result{}, err
	}
	res, err := c.proto().RunWith(cache, worker, c.Scheme, w, heb.RunOptions{Duration: c.Dur})
	if err != nil {
		return res, fmt.Errorf("%s: %w", c.key(), err)
	}
	return res, nil
}

// verify checks a hooks-off result against the reference (at the
// reference seed) and its structural invariants.
func (b *bench) verify(c cell, res sim.Result) error {
	if res.Steps != c.steps() {
		return fmt.Errorf("%s: %d steps, want %d", c.key(), res.Steps, c.steps())
	}
	if b.ref == nil {
		return nil
	}
	want, ok := b.ref[c.key()]
	if !ok {
		return fmt.Errorf("%s: no reference result", c.key())
	}
	if got := outcomeOf(res); !got.equal(want) {
		return fmt.Errorf("%s: result %+v differs from reference %+v", c.key(), got, want)
	}
	return nil
}

// warmUp runs every cell once, untimed and hooks off, on its own run
// cache: it fills code and data caches, and records the results every
// later operation must reproduce.
func (b *bench) warmUp() {
	cells := b.spec.Cells
	results := make([]sim.Result, len(cells))
	errs := make([]error, len(cells))
	cache := heb.NewRunCache(b.spec.Workers)
	d := newDispatcher(len(cells), b.seed, time.Now(), 1)
	closedLoop(d, b.spec.Workers, func(worker, i, _ int) {
		results[i], errs[i] = runCell(cache, worker, cells[i])
	})
	b.warm = make(map[string]sim.Result, len(cells))
	for i, c := range cells {
		err := errs[i]
		if err == nil {
			err = b.verify(c, results[i])
		}
		b.check(err)
		b.warm[c.key()] = results[i]
	}
}

// sameAsWarm checks that a timed hooks-off result reproduces the warm-up.
func (b *bench) sameAsWarm(c cell, res sim.Result) error {
	if want := b.warm[c.key()]; !outcomeOf(res).equal(outcomeOf(want)) {
		return fmt.Errorf("%s: result %+v differs from its first run %+v", c.key(), outcomeOf(res), outcomeOf(want))
	}
	return nil
}

// hooksOn is c's prototype with every engine hook on, as the flight
// workload records it: capture, probes, audit and alert reports, the
// virtual-clock tracer and a checkpoint every slot.
func hooksOn(c cell) heb.Prototype {
	p := c.proto()
	p.Capture = obs.NewCapture()
	p.ProbeEvery = probeEvery
	p.CheckpointEvery = 1
	p.Audit = obs.AuditModeReport
	p.Alert = alerts.ModeReport
	p.Tracer = obs.NewTracer()
	return p
}

// flightOp records c with every hook on, writes the capture into dir,
// reads the chain back, and resumes from its midpoint record to run end.
// Spans go to tr under a new cell when tr is set.
func (b *bench) flightOp(cache *heb.RunCache, worker int, c cell, dir string, tr *tracer) (op, error) {
	var o op
	w, err := c.workload()
	if err != nil {
		return o, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return o, fmt.Errorf("capture dir: %w", err)
	}
	o.Slow = slowdown()
	id := tr.newCell()
	root := tr.begin("flight.record", -1, id)
	p := hooksOn(c)
	t0 := time.Now()
	sRun := tr.begin("heb.RunWith", root, id)
	res, err := p.RunWith(cache, worker, c.Scheme, w, heb.RunOptions{Duration: c.Dur})
	tr.end(sRun, 1, 0)
	o.RunNs = time.Since(t0).Nanoseconds()
	if err != nil {
		tr.end(root, 1, 0)
		return o, fmt.Errorf("%s: record: %w", c.key(), err)
	}
	sWrite := tr.begin("obs.WriteFiles", root, id)
	err = p.Capture.WriteFiles(dir)
	tr.end(sWrite, 1, 0)
	o.CellNs = time.Since(t0).Nanoseconds()
	tr.end(root, 1, 0)
	if err != nil {
		return o, fmt.Errorf("%s: write capture: %w", c.key(), err)
	}
	o.CellSteps, o.Steps = res.Steps, res.Steps
	o.Mismatch = res.MismatchSteps
	for _, n := range res.RelaySwitches {
		o.Relays += n
	}
	if runs := p.Capture.Runs(); len(runs) == 1 {
		o.Events = len(runs[0].Events)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return o, fmt.Errorf("capture dir: %w", err)
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return o, fmt.Errorf("capture dir: %w", err)
		}
		o.CaptureBytes += info.Size()
		if e.Name() == "checkpoints.jsonl" {
			o.CkptBytes = info.Size()
		}
	}
	if want := b.warm[c.key()]; !reflect.DeepEqual(res, want) {
		return o, fmt.Errorf("%s: hooks-on record %+v differs from hooks-off run %+v", c.key(), outcomeOf(res), outcomeOf(want))
	}

	o.ResumeSlow = slowdown()
	root = tr.begin("flight.resume", -1, id)
	t0 = time.Now()
	sRead := tr.begin("obs.ReadCheckpoints", root, id)
	raw, err := os.ReadFile(filepath.Join(dir, "checkpoints.jsonl"))
	var recs []obs.CheckpointRecord
	if err == nil {
		recs, err = obs.ReadCheckpoints(bytes.NewReader(raw))
	}
	tr.end(sRead, 1, 0)
	if err == nil && len(recs) == 0 {
		err = fmt.Errorf("empty chain")
	}
	if err != nil {
		tr.end(root, 1, 0)
		return o, fmt.Errorf("%s: read chain: %w", c.key(), err)
	}
	mid := len(recs) / 2
	rp := c.proto()
	rp.Capture = obs.NewCapture()
	rp.ProbeEvery = probeEvery
	rp.CheckpointEvery = 1
	sRun = tr.begin("heb.Run.resume", root, id)
	resumed, err := rp.Run(c.Scheme, w, heb.RunOptions{Duration: c.Dur, ResumeCheckpoints: recs[:mid+1]})
	tr.end(sRun, 1, 0)
	o.ResumeNs = time.Since(t0).Nanoseconds()
	tr.end(root, 1, 0)
	if err != nil {
		return o, fmt.Errorf("%s: resume: %w", c.key(), err)
	}
	o.Steps += resumed.Steps - recs[mid].Step
	o.CkptRecords = len(recs)
	for _, r := range recs {
		if r.Delta {
			o.CkptDeltas++
		}
	}
	sVal := tr.begin("obs.ValidateCheckpoints", -1, id)
	err = obs.ValidateCheckpoints(recs)
	tr.end(sVal, 1, 0)
	if err != nil {
		return o, fmt.Errorf("%s: chain: %w", c.key(), err)
	}
	if tr != nil {
		sMat := tr.begin("obs.MaterializeAt", -1, id)
		_, err = obs.MaterializeAt(recs, mid)
		tr.end(sMat, 1, 0)
		if err != nil {
			return o, fmt.Errorf("%s: materialize: %w", c.key(), err)
		}
	}
	if !reflect.DeepEqual(resumed, res) {
		return o, fmt.Errorf("%s: resumed result %+v differs from its record %+v", c.key(), outcomeOf(resumed), outcomeOf(res))
	}
	return o, nil
}

// cellSlow is the mean slowdown bracketing the cell part of the op.
func (o op) cellSlow() float64 {
	if o.ResumeSlow > 0 {
		return (o.Slow + o.ResumeSlow) / 2
	}
	return (o.Slow + o.SlowAfter) / 2
}

// resumeSlow is the mean slowdown bracketing a flight op's resume.
func (o op) resumeSlow() float64 { return (o.ResumeSlow + o.SlowAfter) / 2 }

// bracket closes each op's slowdown bracket with the opening sample of
// the next op on the same worker, or with a sample taken now.
func bracket(ops []op) {
	last := map[int]int{}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Start < ops[j].Start })
	for i := range ops {
		if j, ok := last[ops[i].Worker]; ok {
			ops[j].SlowAfter = ops[i].Slow
		}
		last[ops[i].Worker] = i
	}
	end := slowdown()
	for _, j := range last {
		ops[j].SlowAfter = end
	}
}

// phase is the outcome of the timed closed loop.
type phase struct {
	Ops       []op
	Wall      time.Duration
	FirstIdle time.Duration
	// Allocation and GC CPU deltas over the loop.
	AllocBytes, Mallocs uint64
	GCCPU, TotalCPU     float64
}

// timed runs the closed loop for the given duration. With tr set, odd
// passes are traced and even ones are not, so tracing overhead is the
// difference between interleaved passes.
func (b *bench) timed(dur time.Duration, tr *tracer) phase {
	cells := b.spec.Cells
	workers := b.spec.Workers
	cache := heb.NewRunCache(workers)
	built := make([]map[string]bool, workers)
	for i := range built {
		built[i] = map[string]bool{}
	}
	var mu sync.Mutex
	var ph phase
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, tot0 := gcCPU()
	start := time.Now()
	// minPasses guarantees every run the samples its tail percentile is
	// chosen for.
	d := newDispatcher(len(cells), b.seed, start.Add(dur), minPasses)
	ph.Wall, ph.FirstIdle = closedLoop(d, workers, func(worker, i, pass int) {
		c := cells[i]
		var t *tracer
		if pass%2 == 1 {
			t = tr
		}
		// The run cache pools state per worker and structural config.
		poolKey := fmt.Sprintf("%v|x%d", c.Scheme, c.Factor)
		fresh := !built[worker][poolKey]
		built[worker][poolKey] = true
		opStart := time.Since(start)
		var o op
		var err error
		if b.spec.Flight {
			o, err = b.flightOp(cache, worker, c, filepath.Join(b.dir, fmt.Sprint("w", worker)), t)
		} else {
			o.Slow = slowdown()
			id := t.newCell()
			s := t.begin("heb.RunWith", -1, id)
			t0 := time.Now()
			var res sim.Result
			res, err = runCell(cache, worker, c)
			o.RunNs = time.Since(t0).Nanoseconds()
			t.end(s, 1, 0)
			o.CellNs = o.RunNs
			if err == nil {
				err = b.sameAsWarm(c, res)
			}
			o.Steps, o.CellSteps, o.Mismatch = res.Steps, res.Steps, res.MismatchSteps
			for _, n := range res.RelaySwitches {
				o.Relays += n
			}
		}
		b.check(err)
		o.Cell, o.Worker, o.Traced, o.Fresh = i, worker, t != nil, fresh
		o.Start, o.End = opStart, time.Since(start)
		mu.Lock()
		ph.Ops = append(ph.Ops, o)
		mu.Unlock()
	})
	gc1, tot1 := gcCPU()
	runtime.ReadMemStats(&ms1)
	ph.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	ph.Mallocs = ms1.Mallocs - ms0.Mallocs
	ph.GCCPU, ph.TotalCPU = gc1-gc0, tot1-tot0
	bracket(ph.Ops)
	return ph
}

// probe runs the flight probe of a non-flight workload: probeReps record
// and resume ops per probe cell. A probe cell outside the grid first runs
// hooks off, checked like a warm-up cell, to give the record its oracle.
func (b *bench) probe(tr *tracer) []op {
	cache := heb.NewRunCache(1)
	var out []op
	for k := 0; k < probeReps*len(b.spec.Probe); k++ {
		i := k % len(b.spec.Probe)
		c := b.spec.Probe[i]
		if _, ok := b.warm[c.key()]; !ok {
			res, err := runCell(nil, 0, c)
			if err == nil {
				err = b.verify(c, res)
			}
			b.check(err)
			b.warm[c.key()] = res
		}
		o, err := b.flightOp(cache, 0, c, filepath.Join(b.dir, "probe"), tr)
		b.check(err)
		o.Cell = i
		out = append(out, o)
	}
	bracket(out)
	return out
}

// flightOps are the ops that recorded and resumed a chain: the timed ops
// of the flight workload, the probe ops of the others.
func flightOps(s spec, ph phase, probes []op) []op {
	if s.Flight {
		return ph.Ops
	}
	return probes
}

// endToEnd computes the end-to-end metrics. Times are speed-normalized
// (see slowdown); the note also gives the raw figures.
func (b *bench) endToEnd(setupS []float64, ph phase, probes []op) (map[string]float64, string) {
	var cellMs, rawMs []float64
	var raw, norm float64
	steps := 0
	for _, o := range ph.Ops {
		cellMs = append(cellMs, float64(o.CellNs)/1e6/o.cellSlow())
		rawMs = append(rawMs, float64(o.CellNs)/1e6)
		d := float64(o.End - o.Start)
		raw += d
		if b.spec.Flight {
			norm += float64(o.CellNs)/o.cellSlow() + (d-float64(o.CellNs))/o.resumeSlow()
		} else {
			norm += d / o.cellSlow()
		}
		steps += o.Steps
	}
	// The loop's wall time rescaled by its ops' mean slowdown.
	wall := ph.Wall.Seconds() * norm / raw
	var resumeMs, kbPerH []float64
	for _, o := range flightOps(b.spec, ph, probes) {
		c := b.spec.Cells[o.Cell]
		if !b.spec.Flight {
			c = b.spec.Probe[o.Cell]
		}
		resumeMs = append(resumeMs, float64(o.ResumeNs)/1e6/o.resumeSlow())
		kbPerH = append(kbPerH, float64(o.CaptureBytes)/1024/c.Dur.Hours())
	}
	// The tail percentile is chosen from the samples every run is sure to
	// hold, minPasses passes, so that a slow host cannot switch it.
	pct := tailPercentile(minPasses * len(b.spec.Cells))
	tailV, beyond := tail(cellMs, pct)
	m := map[string]float64{
		"setup_s":              median(setupS),
		"sim_steps_per_s":      float64(steps) / wall,
		"cell_ms_p50":          median(cellMs),
		"cell_ms_tail":         tailV,
		"resume_ms_p50":        median(resumeMs),
		"capture_kb_per_sim_h": median(kbPerH),
		"peak_rss_mb":          peakRSSMB(),
		"paper_ee_err_pp":      math.Abs(b.eeGainPct() - paperEEGainPct),
	}
	rawTail, _ := tail(rawMs, pct)
	note := fmt.Sprintf("cell_ms_tail is p%d over %d cells (%d beyond); host slowdown %.2fx, raw cell_ms_p50 %.4g, raw cell_ms_tail %.4g, raw sim_steps_per_s %.4g",
		pct, len(cellMs), beyond, raw/norm, median(rawMs), rawTail, float64(steps)/ph.Wall.Seconds())
	return m, note
}

// accuracyCells are the cells paper_ee_err_pp is taken over on every
// workload: the sweep grid's HEB-D and BaOnly cells. Averaging over its
// eight seeds keeps the figure steady from one seed to the next.
func accuracyCells(seed int64) []cell {
	s, _ := specFor("sweep", seed)
	var out []cell
	for _, c := range s.Cells {
		if c.Scheme == heb.HEBD || c.Scheme == heb.BaOnly {
			out = append(out, c)
		}
	}
	return out
}

// eeGainPct is the mean HEB-D energy efficiency over the mean BaOnly one
// across the accuracy cells, as a percentage gain. Cells the workload has
// not run yet are run now, untimed, and checked like warm-up cells.
func (b *bench) eeGainPct() float64 {
	var d, base []float64
	cache := heb.NewRunCache(1)
	for _, c := range accuracyCells(b.seed) {
		res, ok := b.warm[c.key()]
		if !ok {
			var err error
			res, err = runCell(cache, 0, c)
			if err == nil {
				err = b.verify(c, res)
			}
			b.check(err)
		}
		if c.Scheme == heb.HEBD {
			d = append(d, res.EnergyEfficiency)
		} else {
			base = append(base, res.EnergyEfficiency)
		}
	}
	return (mean(d)/mean(base) - 1) * 100
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// gcCPU reads the runtime's cumulative GC and total CPU time estimates.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}
