package main

import (
	"flag"
	"fmt"
	"io"
	"path/filepath"

	"heb/internal/obs"
)

// traceCmd summarizes a Chrome trace-event span profile written by
// `hebsim -trace file.json`: it validates the trace and prints a
// per-phase rollup with self time (nested spans subtracted), so hot
// phases are visible without opening a viewer. Any failure, unreadable
// file included, is a finding.
func traceCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	top := fs.Int("top", 0, "print only the N hottest phases by self time (0 = all)")
	if err := parse(fs, args, 1); err != nil {
		return err
	}
	path := fs.Arg(0)
	events, ok, err := readArtifact(filepath.Dir(path), filepath.Base(path), readTrace)
	if err == nil && !ok {
		err = fmt.Errorf("%s: no such file", path)
	}
	if err != nil {
		return findings{err}
	}
	stats := obs.Rollup(events)
	if *top > 0 && *top < len(stats) {
		stats = stats[:*top]
	}
	var totalSelf int64
	for _, s := range stats {
		totalSelf += s.SelfUS
	}
	fmt.Fprintf(w, "%d trace events, %d phases\n", len(events), len(stats))
	fmt.Fprintf(w, "%-12s %10s %14s %14s %7s\n", "phase", "count", "total(us)", "self(us)", "self%")
	for _, s := range stats {
		pct := 0.0
		if totalSelf > 0 {
			pct = float64(s.SelfUS) / float64(totalSelf) * 100
		}
		fmt.Fprintf(w, "%-12s %10d %14d %14d %6.1f%%\n", s.Name, s.Count, s.TotalUS, s.SelfUS, pct)
	}
	return nil
}
