package main

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"

	"heb"
	"heb/internal/obs"
)

// flight carries the flight-recorder flags (-checkpoint-every, -resume,
// -replay) into the single-run path. All three operate on
// <obs-dir>/checkpoints.jsonl.
type flight struct {
	dir    string
	every  int
	resume bool
	replay string
}

func (f flight) enabled() bool { return f.every > 0 || f.resume || f.replay != "" }

func (f flight) path() string { return filepath.Join(f.dir, "checkpoints.jsonl") }

// wireFlight loads and validates the prior chain for -resume and
// -replay, hands it to the run to check (taking the run's checkpoint
// cadence from it unless -checkpoint-every set one), installs the
// write-through checkpoint appender when the run records, and (for
// replay) attaches the window collectors. It returns a non-nil
// replayWindow when a windowed replay is armed.
func wireFlight(w io.Writer, p *heb.Prototype, opts *heb.RunOptions, fl flight) (*replayWindow, error) {
	var group []obs.CheckpointRecord
	runKey, a, b := "", 0, 0
	if fl.replay != "" {
		var err error
		if runKey, a, b, err = parseReplayWindow(fl.replay); err != nil {
			return nil, err
		}
	}
	if fl.resume || fl.replay != "" {
		f, err := os.Open(fl.path())
		if err != nil {
			return nil, fmt.Errorf("flight recorder: %w", err)
		}
		records, rerr := obs.ReadCheckpoints(f)
		f.Close()
		if rerr != nil {
			return nil, rerr
		}
		if err := obs.ValidateCheckpoints(records); err != nil {
			return nil, err
		}
		group = lastRunGroup(records, runKey)
		switch {
		case len(records) == 0:
			return nil, fmt.Errorf("flight recorder: no checkpoints in %s", fl.path())
		case len(group) == 0:
			return nil, fmt.Errorf("flight recorder: no checkpoints for run %q in %s", runKey, fl.path())
		}
		if p.CheckpointEvery == 0 {
			// A chain's first record lands at the first checkpointed slot.
			p.CheckpointEvery = group[0].Slot
		}
	}

	if fl.replay != "" {
		// The window ends at step b*slotSteps; the run re-executes
		// everything before it and checks every record it passes.
		slotSteps := int(p.Slot / p.Step)
		if slotSteps < 1 {
			slotSteps = 1
		}
		n := 0
		for n < len(group) && group[n].Slot <= b {
			n++
		}
		opts.ResumeCheckpoints = group[:n]
		opts.MaxSteps = b * slotSteps
		fmt.Fprintf(w, "replay slots %d-%d: re-executing from the seed, checking %d recorded checkpoints on the way\n", a, b, n)
		win := &replayWindow{a: a, b: b, slotSecs: p.Slot.Seconds(), events: obs.NewLog(0)}
		userEvents := opts.Events
		opts.Events = obs.MultiSink(userEvents, win.events)
		userTrace := opts.DecisionTrace
		opts.DecisionTrace = func(r obs.DecisionRecord) {
			win.decisions = append(win.decisions, r)
			if userTrace != nil {
				userTrace(r)
			}
		}
		return win, nil
	}

	groupRun := ""
	if fl.resume {
		last := group[len(group)-1]
		groupRun = last.Run
		opts.ResumeCheckpoints = group
		fmt.Fprintf(w, "resuming: re-executing from the seed, checking %d recorded checkpoints (through slot %d, step %d, t=%gs)\n",
			len(group), last.Slot, last.Step, last.Seconds)
	}
	if p.CheckpointEvery > 0 {
		sink, err := newCheckpointAppender(fl.path(), fl.resume, groupRun)
		if err != nil {
			return nil, err
		}
		opts.CheckpointSink = sink
	}
	return nil, nil
}

// lastRunGroup selects one run's records from a (possibly multi-run)
// chain file: the given run key, or the run of the last record when the
// key is empty.
func lastRunGroup(records []obs.CheckpointRecord, runKey string) []obs.CheckpointRecord {
	if len(records) == 0 {
		return nil
	}
	if runKey == "" {
		runKey = records[len(records)-1].Run
	}
	var out []obs.CheckpointRecord
	for _, r := range records {
		if r.Run == runKey {
			out = append(out, r)
		}
	}
	return out
}

// parseReplayWindow parses "[run:]A-B" (1-based control-slot ordinals,
// inclusive). The run key may itself contain ':' — the window is split
// off at the last colon.
func parseReplayWindow(s string) (runKey string, a, b int, err error) {
	window := s
	if i := strings.LastIndex(s, ":"); i >= 0 {
		runKey, window = s[:i], s[i+1:]
	}
	if _, err := fmt.Sscanf(window, "%d-%d", &a, &b); err != nil {
		return "", 0, 0, fmt.Errorf("flight recorder: bad replay window %q (want [run:]A-B)", s)
	}
	if a < 1 || b < a {
		return "", 0, 0, fmt.Errorf("flight recorder: bad replay window %d-%d (want 1 <= A <= B)", a, b)
	}
	return runKey, a, b, nil
}

// newCheckpointAppender opens the write-through checkpoints.jsonl sink:
// truncating for a fresh run, appending for a resume (the prior records
// are already in the file). Each record is written immediately, so a
// killed run still leaves a valid chain behind. Appended records inherit
// the prior group's run label to keep the file a single valid chain.
// Records go through obs.WriteJSONL, the encoder that writes a capture's
// checkpoints.jsonl.
func newCheckpointAppender(path string, resume bool, groupRun string) (func(obs.CheckpointRecord), error) {
	flags := os.O_CREATE | os.O_WRONLY
	if resume {
		flags |= os.O_APPEND
	} else {
		flags |= os.O_TRUNC
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("flight recorder: %w", err)
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("flight recorder: %w", err)
	}
	return func(r obs.CheckpointRecord) {
		if r.Run == "" {
			r.Run = groupRun
		}
		if err := obs.WriteJSONL(f, []obs.CheckpointRecord{r}); err != nil {
			slog.Warn("write checkpoint failed", "err", err)
		}
	}, nil
}

// replayWindow collects the replayed run's events and decisions and
// reports the requested slot window at full resolution.
type replayWindow struct {
	a, b      int
	slotSecs  float64
	events    *obs.Log
	decisions []obs.DecisionRecord
}

// report prints the window's decision records and discrete events.
func (rw *replayWindow) report(w io.Writer) {
	lo := float64(rw.a-1) * rw.slotSecs
	hi := float64(rw.b) * rw.slotSecs
	fmt.Fprintf(w, "\n--- replay window: slots %d-%d (t=%g-%gs) ---\n", rw.a, rw.b, lo, hi)
	fmt.Fprintf(w, "%5s %-14s %7s %11s %11s %11s %9s\n",
		"slot", "mode", "ratio", "predPeak(W)", "actPeak(W)", "scFracEnd", "complete")
	for _, d := range rw.decisions {
		if d.Slot < rw.a || d.Slot > rw.b {
			continue
		}
		fmt.Fprintf(w, "%5d %-14s %7.3f %11.1f %11.1f %11.3f %9v\n",
			d.Slot, d.Mode, d.Ratio, d.PredictedPeakW, d.ActualPeakW, d.SCFracEnd, d.Completed)
	}
	events := rw.events.Between(lo, hi)
	if len(events) > 0 {
		fmt.Fprintln(w, "events:")
	}
	for _, e := range events {
		line := fmt.Sprintf("  t=%-8g %-18s server=%d", e.Seconds, e.Kind, e.Server)
		if e.From != "" || e.To != "" {
			line += fmt.Sprintf(" %s->%s", e.From, e.To)
		}
		if e.Watts != 0 {
			line += fmt.Sprintf(" %.1fW", e.Watts)
		}
		if e.Detail != "" {
			line += " " + e.Detail
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%d events in window\n", len(events))
}
