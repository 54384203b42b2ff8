// Package trace holds time-series containers shared by the workload and
// solar generators and the simulator: fixed-step, per-server utilization
// traces and scalar power traces, with CSV and JSON round-tripping so
// experiments can be recorded and replayed.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"
)

// Trace is a fixed-step utilization trace for a set of servers.
// Samples[t][s] is the utilization of server s during step t, in [0,1].
type Trace struct {
	// Name labels the trace (e.g. the workload abbreviation).
	Name string
	// Step is the sample spacing.
	Step time.Duration
	// Samples holds one row per step, one column per server.
	Samples [][]float64
}

// New builds an empty trace with capacity for steps rows.
func New(name string, step time.Duration, servers, steps int) (*Trace, error) {
	if step <= 0 {
		return nil, fmt.Errorf("trace: step %v must be positive", step)
	}
	if servers <= 0 {
		return nil, fmt.Errorf("trace: server count %d must be positive", servers)
	}
	if steps < 0 {
		return nil, fmt.Errorf("trace: step count %d must be non-negative", steps)
	}
	tr := &Trace{Name: name, Step: step, Samples: make([][]float64, steps)}
	for i := range tr.Samples {
		tr.Samples[i] = make([]float64, servers)
	}
	return tr, nil
}

// MustNew is New for known-good parameters.
func MustNew(name string, step time.Duration, servers, steps int) *Trace {
	tr, err := New(name, step, servers, steps)
	if err != nil {
		panic(err)
	}
	return tr
}

// Servers returns the per-row width (0 for an empty trace).
func (tr *Trace) Servers() int {
	if len(tr.Samples) == 0 {
		return 0
	}
	return len(tr.Samples[0])
}

// Steps returns the number of rows.
func (tr *Trace) Steps() int { return len(tr.Samples) }

// Duration returns the covered time span.
func (tr *Trace) Duration() time.Duration {
	return time.Duration(len(tr.Samples)) * tr.Step
}

// At returns the utilization row at time t, wrapping past the end so long
// simulations replay the trace.
func (tr *Trace) At(t time.Duration) []float64 {
	if len(tr.Samples) == 0 {
		return nil
	}
	i := 0
	if t > 0 {
		i = int(t/tr.Step) % len(tr.Samples)
	}
	return tr.Samples[i]
}

// Validate checks the trace's structural invariants: at least one
// non-empty row, rectangular rows and every sample a finite value in
// [0,1].
func (tr *Trace) Validate() error {
	if tr.Step <= 0 {
		return fmt.Errorf("trace %q: step %v must be positive", tr.Name, tr.Step)
	}
	w := tr.Servers()
	if w == 0 {
		return fmt.Errorf("trace %q: no samples", tr.Name)
	}
	for i, row := range tr.Samples {
		if len(row) != w {
			return fmt.Errorf("trace %q: row %d has %d columns, want %d", tr.Name, i, len(row), w)
		}
		for j, v := range row {
			// The negated form also rejects NaN, which fails every
			// comparison.
			if !(v >= 0 && v <= 1) {
				return fmt.Errorf("trace %q: sample [%d][%d] = %g outside [0,1]", tr.Name, i, j, v)
			}
		}
	}
	return nil
}

// Slice returns a sub-trace covering rows [from, to).
func (tr *Trace) Slice(from, to int) (*Trace, error) {
	if from < 0 || to > len(tr.Samples) || from > to {
		return nil, fmt.Errorf("trace %q: slice [%d,%d) out of range (len %d)", tr.Name, from, to, len(tr.Samples))
	}
	return &Trace{Name: tr.Name, Step: tr.Step, Samples: tr.Samples[from:to]}, nil
}

// WriteCSV encodes the trace as CSV: a header row ("t_seconds",
// "server0", ...) then one row per step.
func (tr *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, tr.Servers()+1)
	header[0] = "t_seconds"
	for j := 1; j < len(header); j++ {
		header[j] = fmt.Sprintf("server%d", j-1)
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	row := make([]string, len(header))
	for i, samples := range tr.Samples {
		row[0] = strconv.FormatFloat(float64(i)*tr.Step.Seconds(), 'g', -1, 64)
		for j, v := range samples {
			row[j+1] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV decodes a trace written by WriteCSV. step must be supplied by
// the caller (CSV stores only elapsed seconds; the step is recovered from
// the first two rows when possible, falling back to fallbackStep).
func ReadCSV(r io.Reader, name string, fallbackStep time.Duration) (*Trace, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: read csv: %w", err)
	}
	if len(records) < 1 {
		return nil, fmt.Errorf("trace: csv has no header")
	}
	width := len(records[0]) - 1
	if width < 1 {
		return nil, fmt.Errorf("trace: csv header has no server columns")
	}
	tr := &Trace{Name: name, Step: fallbackStep}
	for i, rec := range records[1:] {
		if len(rec) != width+1 {
			return nil, fmt.Errorf("trace: csv row %d has %d fields, want %d", i+1, len(rec), width+1)
		}
		row := make([]float64, width)
		for j := 0; j < width; j++ {
			v, err := strconv.ParseFloat(rec[j+1], 64)
			if err != nil {
				return nil, fmt.Errorf("trace: csv row %d col %d: %w", i+1, j+1, err)
			}
			row[j] = v
		}
		tr.Samples = append(tr.Samples, row)
	}
	if len(records) > 2 {
		t0, err0 := strconv.ParseFloat(records[1][0], 64)
		t1, err1 := strconv.ParseFloat(records[2][0], 64)
		if err0 == nil && err1 == nil && t1 > t0 {
			// Round, not truncate: WriteCSV's timestamps are the step's
			// seconds, which scale back to a hair under whole nanoseconds.
			tr.Step = time.Duration(math.Round((t1 - t0) * float64(time.Second)))
		}
	}
	if tr.Step <= 0 {
		return nil, fmt.Errorf("trace: cannot determine step and no valid fallback given")
	}
	return tr, nil
}

// traceJSON is the stable JSON wire form.
type traceJSON struct {
	Name        string      `json:"name"`
	StepSeconds float64     `json:"step_seconds"`
	Samples     [][]float64 `json:"samples"`
}

// MarshalJSON implements json.Marshaler.
func (tr *Trace) MarshalJSON() ([]byte, error) {
	return json.Marshal(traceJSON{
		Name:        tr.Name,
		StepSeconds: tr.Step.Seconds(),
		Samples:     tr.Samples,
	})
}

// UnmarshalJSON implements json.Unmarshaler.
func (tr *Trace) UnmarshalJSON(data []byte) error {
	var tj traceJSON
	if err := json.Unmarshal(data, &tj); err != nil {
		return fmt.Errorf("trace: unmarshal: %w", err)
	}
	step := time.Duration(tj.StepSeconds * float64(time.Second))
	if tj.StepSeconds <= 0 || step <= 0 {
		// A step under a nanosecond truncates to zero, and one past the
		// Duration range wraps negative; At divides by it.
		return fmt.Errorf("trace: json step %g s must be at least 1 ns and fit a time.Duration", tj.StepSeconds)
	}
	tr.Name = tj.Name
	tr.Step = step
	tr.Samples = tj.Samples
	return nil
}

// Merge joins traces column-wise into one wider trace: the result has the
// union of all servers, sample-aligned. All inputs must share the step;
// the shortest input bounds the output length.
func Merge(name string, traces ...*Trace) (*Trace, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("trace: merge needs inputs")
	}
	for i, tr := range traces {
		if tr == nil {
			return nil, fmt.Errorf("trace: merge input %d is nil", i)
		}
	}
	step := traces[0].Step
	minSteps := traces[0].Steps()
	width := 0
	for i, tr := range traces {
		if tr.Step != step {
			return nil, fmt.Errorf("trace: merge input %d step %v != %v", i, tr.Step, step)
		}
		if tr.Steps() < minSteps {
			minSteps = tr.Steps()
		}
		width += tr.Servers()
	}
	if width == 0 {
		return nil, fmt.Errorf("trace: merge inputs have no servers")
	}
	out := MustNew(name, step, width, minSteps)
	for i := 0; i < minSteps; i++ {
		col := 0
		for _, tr := range traces {
			col += copy(out.Samples[i][col:], tr.Samples[i])
		}
	}
	return out, nil
}

// Series is a scalar time series (aggregate power, solar output) with the
// same fixed-step convention as Trace.
type Series struct {
	Name   string
	Step   time.Duration
	Values []float64
}

// NewSeries builds a series; it validates the step only, since values may
// legitimately be any non-negative magnitude.
func NewSeries(name string, step time.Duration, values []float64) (*Series, error) {
	if step <= 0 {
		return nil, fmt.Errorf("trace: series step %v must be positive", step)
	}
	return &Series{Name: name, Step: step, Values: values}, nil
}

// MustNewSeries is NewSeries for known-good parameters.
func MustNewSeries(name string, step time.Duration, values []float64) *Series {
	s, err := NewSeries(name, step, values)
	if err != nil {
		panic(err)
	}
	return s
}

// At returns the value at time t with wraparound.
func (s *Series) At(t time.Duration) float64 {
	if len(s.Values) == 0 {
		return 0
	}
	i := 0
	if t > 0 {
		i = int(t/s.Step) % len(s.Values)
	}
	return s.Values[i]
}

// Duration returns the covered time span.
func (s *Series) Duration() time.Duration {
	return time.Duration(len(s.Values)) * s.Step
}

// Max returns the largest value (0 for empty).
func (s *Series) Max() float64 {
	var max float64
	for _, v := range s.Values {
		if v > max {
			max = v
		}
	}
	return max
}

// Mean returns the arithmetic mean (0 for empty).
func (s *Series) Mean() float64 {
	if len(s.Values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(len(s.Values))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by nearest-rank on a sorted
// copy; it is used by the provisioning analysis for Figure 1.
func (s *Series) Quantile(q float64) float64 {
	if len(s.Values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.Values...)
	sort.Float64s(sorted)
	idx := int(q*float64(len(sorted)-1) + 0.5)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
