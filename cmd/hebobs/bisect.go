package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"heb/internal/obs"
)

// bisectCmd locates the first behavioral divergence between two runs
// recorded with `hebsim -obs dir/ -checkpoint-every N`. The simulator is
// deterministic, so two runs that agree at a checkpoint agree at every
// earlier one: divergence is monotone in the slot index, and a binary
// search decodes and diffs only O(log n) state pairs. The report names
// the first diverging checkpoint, its field-level state diff, and the
// bracketing decisions and events when decisions.jsonl and events.jsonl
// are present. Config-echo fields that differ between differently
// configured runs (utility budget, cluster size) are ignored by default;
// pass -ignore "" to diff strictly. The metric series and the PAT entries
// are stored as {len, digest} pairs, so a divergence only they show is
// reported at their digest path and compared exactly whatever -tol says.
// A divergence is a finding.
func bisectCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("bisect", flag.ExitOnError)
	runA := fs.String("run-a", "", "run key to select from dirA's chain (default: last record's run)")
	runB := fs.String("run-b", "", "run key to select from dirB's chain (default: last record's run)")
	tol := fs.Float64("tol", 0, "absolute+relative float tolerance (0 = exact)")
	ignore := fs.String("ignore", "budget_w,Budget,NumServers", "comma-separated field names excluded from the state diff")
	maxDiffs := fs.Int("max-diffs", 16, "cap on reported field diffs")
	if err := parse(fs, args, 2); err != nil {
		return err
	}
	if *tol < 0 || math.IsNaN(*tol) || math.IsInf(*tol, 0) {
		return fmt.Errorf("-tol %g: want a finite tolerance >= 0", *tol)
	}
	diverged, err := bisect(w, fs.Arg(0), fs.Arg(1), *runA, *runB, *tol, ignoreSet(*ignore), *maxDiffs)
	if err == nil && diverged {
		return findings{errors.New("runs diverge")}
	}
	return err
}

func ignoreSet(s string) map[string]bool {
	out := make(map[string]bool)
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out[f] = true
		}
	}
	return out
}

// side is one run's recorded artifacts: its checkpoint group plus the
// optional decision/event traces filtered to the same run.
type side struct {
	name, dir, run string
	// records is the full validated chain (all runs); bySlot maps this
	// run's slots to indices into records.
	records []obs.CheckpointRecord
	bySlot  map[int]int
	slots   []int
	// decisions and events are nil when the directory has no such file.
	decisions []obs.DecisionRecord
	events    []obs.Event
}

// loadSide reads and validates one directory's chain and picks the
// requested run group; name labels the side in the report.
func loadSide(name, dir, runKey string) (*side, error) {
	records, _, err := readArtifact(dir, "checkpoints.jsonl", obs.ReadCheckpoints)
	if err == nil {
		err = obs.ValidateCheckpoints(records)
	}
	if err == nil && len(records) == 0 {
		err = errors.New("no checkpoints")
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	if runKey == "" {
		runKey = records[len(records)-1].Run
	}
	s := &side{name: name, dir: dir, run: runKey, records: records, bySlot: make(map[int]int)}
	for i, r := range records {
		if r.Run != runKey {
			continue
		}
		s.bySlot[r.Slot] = i
		s.slots = append(s.slots, r.Slot)
	}
	if len(s.slots) == 0 {
		return nil, fmt.Errorf("%s: no checkpoints for run %q", dir, runKey)
	}
	sort.Ints(s.slots)

	decisions, _, err := readArtifact(dir, "decisions.jsonl", obs.ReadJSONL[obs.DecisionRecord])
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	events, _, err := readArtifact(dir, "events.jsonl", obs.ReadJSONL[obs.Event])
	if err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	s.decisions = ofRun(decisions, runKey, func(r obs.DecisionRecord) string { return r.Run })
	s.events = ofRun(events, runKey, func(e obs.Event) string { return e.Run })
	return s, nil
}

// slotSeconds recovers the control-slot length from the chain (every
// record's Seconds is Slot * slot length).
func (s *side) slotSeconds() float64 {
	for _, slot := range s.slots {
		if slot > 0 {
			return s.rec(slot).Seconds / float64(slot)
		}
	}
	return 0
}

// rec returns the side's checkpoint record for a slot.
func (s *side) rec(slot int) obs.CheckpointRecord {
	return s.records[s.bySlot[slot]]
}

// decision returns the side's record for a 1-based control slot.
func (s *side) decision(slot int) (obs.DecisionRecord, bool) {
	for _, r := range s.decisions {
		if r.Slot == slot {
			return r, true
		}
	}
	return obs.DecisionRecord{}, false
}

// bisect finds and reports the first diverging checkpoint. It returns
// whether a divergence exists in the common slot range.
func bisect(w io.Writer, dirA, dirB, runA, runB string, tol float64, ignore map[string]bool, maxDiffs int) (bool, error) {
	a, err := loadSide("A", dirA, runA)
	if err != nil {
		return false, err
	}
	b, err := loadSide("B", dirB, runB)
	if err != nil {
		return false, err
	}
	var common []int
	for _, slot := range a.slots {
		if _, ok := b.bySlot[slot]; ok {
			common = append(common, slot)
		}
	}
	if len(common) == 0 {
		return false, fmt.Errorf("no common checkpoint slots (A has %d-%d, B has %d-%d)",
			a.slots[0], a.slots[len(a.slots)-1], b.slots[0], b.slots[len(b.slots)-1])
	}
	fmt.Fprintf(w, "A: %s run %q, checkpoints at slots %d-%d\n", a.dir, a.run, a.slots[0], a.slots[len(a.slots)-1])
	fmt.Fprintf(w, "B: %s run %q, checkpoints at slots %d-%d\n", b.dir, b.run, b.slots[0], b.slots[len(b.slots)-1])

	diffAt := func(i int) []obs.FieldDiff {
		return obs.DiffJSON(a.rec(common[i]).State, b.rec(common[i]).State, tol, ignore)
	}
	// The simulator is deterministic: states equal at slot s stay equal at
	// every later checkpoint, so "diverged" is monotone over the common
	// slots and sort.Search lands exactly on the first divergence.
	first := sort.Search(len(common), func(i int) bool { return len(diffAt(i)) > 0 })
	if first == len(common) {
		fmt.Fprintf(w, "no divergence across %d common checkpoints (slots %d-%d)\n",
			len(common), common[0], common[len(common)-1])
		return false, nil
	}

	slot := common[first]
	diffs := diffAt(first)
	fmt.Fprintf(w, "\nfirst divergence at checkpoint slot %d (t=%gs, step %d)\n",
		slot, a.rec(slot).Seconds, a.rec(slot).Step)
	if first == 0 {
		fmt.Fprintf(w, "runs differ at the earliest common checkpoint; divergence is at or before control slot %d\n", slot)
	} else {
		fmt.Fprintf(w, "last agreeing checkpoint: slot %d; behavior diverged during control slot %d or in the plan for slot %d\n",
			common[first-1], slot, slot+1)
	}
	fmt.Fprintf(w, "\nstate diff (%d fields differ):\n", len(diffs))
	for i, d := range diffs {
		if i == maxDiffs {
			fmt.Fprintf(w, "  ... %d more\n", len(diffs)-maxDiffs)
			break
		}
		fmt.Fprintf(w, "  %-50s A=%v B=%v\n", d.Path, d.A, d.B)
	}

	reportDecisions(w, a, b, slot)
	reportEvents(w, a, b, slot)
	return true, nil
}

// reportDecisions prints both runs' decision records bracketing the
// divergence: the slot the behavior diverged in and the next plan.
func reportDecisions(w io.Writer, a, b *side, slot int) {
	if a.decisions == nil && b.decisions == nil {
		return
	}
	fmt.Fprintf(w, "\nbracketing decisions (control slots %d-%d):\n", slot, slot+1)
	for s := slot; s <= slot+1; s++ {
		for _, sd := range []*side{a, b} {
			r, ok := sd.decision(s)
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %s slot %d: mode=%s ratio=%.3f small_peak=%v predPeak=%.1fW actPeak=%.1fW scFracEnd=%.3f\n",
				sd.name, s, r.Mode, r.Ratio, r.SmallPeak, r.PredictedPeakW, r.ActualPeakW, r.SCFracEnd)
		}
	}
}

// reportEvents prints both runs' discrete events inside the diverging
// control slot (checkpoint slot s covers simulation time
// [(s-1)*slot, s*slot)).
func reportEvents(w io.Writer, a, b *side, slot int) {
	if a.events == nil && b.events == nil {
		return
	}
	slotSecs := a.slotSeconds()
	if slotSecs <= 0 {
		return
	}
	lo, hi := float64(slot-1)*slotSecs, float64(slot)*slotSecs
	fmt.Fprintf(w, "\nbracketing events (t=%g-%gs):\n", lo, hi)
	for _, sd := range []*side{a, b} {
		n := 0
		for _, e := range sd.events {
			if e.Seconds < lo || e.Seconds >= hi {
				continue
			}
			n++
			line := fmt.Sprintf("  %s t=%-8g %-18s server=%d", sd.name, e.Seconds, e.Kind, e.Server)
			if e.From != "" || e.To != "" {
				line += fmt.Sprintf(" %s->%s", e.From, e.To)
			}
			if e.Watts != 0 {
				line += fmt.Sprintf(" %.1fW", e.Watts)
			}
			fmt.Fprintln(w, line)
		}
		if n == 0 {
			fmt.Fprintf(w, "  %s (no events in window)\n", sd.name)
		}
	}
}
