package main

import (
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"heb/internal/obs/prof"
)

// The prof subcommands are the differential profiler for hebsim capture
// profiles. An input is a pprof proto file (.pb.gz or raw, e.g. a `go
// test -memprofile` output), a capture directory holding profiles/, or a
// tree of capture directories — tree inputs merge every matching profile.

// resolveInputs expands each input into pprof file paths for the kind:
// a file is taken as-is; a capture dir contributes dir/profiles/<kind>;
// any other dir is walked for */profiles/<kind> entries.
func resolveInputs(inputs []string, kind string) ([]string, error) {
	var files []string
	for _, in := range inputs {
		info, err := os.Stat(in)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			files = append(files, in)
			continue
		}
		direct := filepath.Join(in, prof.Dir, prof.FileName(kind))
		if _, err := os.Stat(direct); err == nil {
			files = append(files, direct)
			continue
		}
		n := len(files)
		werr := filepath.WalkDir(in, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && d.Name() == prof.FileName(kind) &&
				filepath.Base(filepath.Dir(path)) == prof.Dir {
				files = append(files, path)
			}
			return nil
		})
		if werr != nil {
			return nil, werr
		}
		if len(files) == n {
			return nil, fmt.Errorf("%s: no %s profiles under this tree (expected */%s/%s)",
				in, kind, prof.Dir, prof.FileName(kind))
		}
	}
	sort.Strings(files)
	return files, nil
}

// loadRollup parses and merges every resolved input into one rollup.
func loadRollup(inputs []string, kind, sample, by string) (*prof.Rollup, []string, error) {
	files, err := resolveInputs(inputs, kind)
	if err != nil {
		return nil, nil, err
	}
	var profiles []*prof.Profile
	for _, f := range files {
		p, err := prof.ParseFile(f)
		if err != nil {
			return nil, nil, err
		}
		profiles = append(profiles, p)
	}
	r, err := prof.NewRollup(profiles, sample, by)
	if err != nil {
		return nil, nil, err
	}
	return r, files, nil
}

// profTopCmd prints the merged per-frame flat/cum rollup of one or many
// profiled runs.
func profTopCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("prof top", flag.ExitOnError)
	kind := fs.String("kind", "cpu", "profile kind to load from capture dirs (cpu, heap, allocs, mutex, block)")
	sample := fs.String("sample", "", "sample type to aggregate (default: the profile's headline column)")
	n := fs.Int("n", 20, "frames to show")
	by := fs.String("by", "", "also bucket totals by this pprof label (scheme, workload, seed, phase)")
	if err := parse(fs, args, -1); err != nil {
		return err
	}
	r, files, err := loadRollup(fs.Args(), *kind, *sample, *by)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d profile(s), sample %s, total %s\n",
		len(files), r.Sample, prof.FormatValue(r.Total, r.Sample.Unit))
	if *by != "" {
		writeLabelBuckets(w, r, *by)
	}
	fmt.Fprintf(w, "%12s %7s %12s  %s\n", "flat", "flat%", "cum", "frame")
	for _, f := range r.Top(*n) {
		fmt.Fprintf(w, "%12s %6.2f%% %12s  %s\n",
			prof.FormatValue(f.Flat, r.Sample.Unit), r.FlatPct(f),
			prof.FormatValue(f.Cum, r.Sample.Unit), prof.ShortName(f.Name))
	}
	return nil
}

// writeLabelBuckets prints the per-label-value share table.
func writeLabelBuckets(w io.Writer, r *prof.Rollup, label string) {
	keys := make([]string, 0, len(r.ByLabel))
	for k := range r.ByLabel {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if r.ByLabel[keys[i]] != r.ByLabel[keys[j]] {
			return r.ByLabel[keys[i]] > r.ByLabel[keys[j]]
		}
		return keys[i] < keys[j]
	})
	fmt.Fprintf(w, "by %s:\n", label)
	for _, k := range keys {
		v := r.ByLabel[k]
		pct := 0.0
		if r.Total != 0 {
			pct = 100 * float64(v) / float64(r.Total)
		}
		fmt.Fprintf(w, "  %-24s %12s %6.2f%%\n", k, prof.FormatValue(v, r.Sample.Unit), pct)
	}
}

// profDiffCmd prints the per-frame delta table between two profiles or
// capture trees; a frame share moved past -threshold is a finding.
func profDiffCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("prof diff", flag.ExitOnError)
	kind := fs.String("kind", "cpu", "profile kind to load from capture dirs")
	sample := fs.String("sample", "", "sample type to aggregate (default: headline column)")
	minPct := fs.Float64("min", 1.0, "hide frames below this flat%% on both sides")
	threshold := fs.Float64("threshold", 5.0, "exit nonzero when any frame's flat share moved more than this many percentage points (0 disables)")
	if err := parse(fs, args, 2); err != nil {
		return err
	}
	base, _, err := loadRollup(fs.Args()[:1], *kind, *sample, "")
	if err != nil {
		return fmt.Errorf("base: %w", err)
	}
	cur, _, err := loadRollup(fs.Args()[1:], *kind, *sample, "")
	if err != nil {
		return fmt.Errorf("new: %w", err)
	}
	if base.Sample != cur.Sample {
		return fmt.Errorf("sample types differ: base %s vs new %s", base.Sample, cur.Sample)
	}
	rows := prof.Diff(base, cur, *minPct)
	fmt.Fprintf(w, "sample %s, base total %s, new total %s\n", base.Sample,
		prof.FormatValue(base.Total, base.Sample.Unit), prof.FormatValue(cur.Total, cur.Sample.Unit))
	fmt.Fprintf(w, "%12s %7s %12s %7s %8s  %s\n", "base", "base%", "new", "new%", "Δpp", "frame")
	worst := 0.0
	for _, row := range rows {
		fmt.Fprintf(w, "%12s %6.2f%% %12s %6.2f%% %+7.2f  %s\n",
			prof.FormatValue(row.BaseFlat, base.Sample.Unit), row.BasePct,
			prof.FormatValue(row.NewFlat, cur.Sample.Unit), row.NewPct,
			row.DeltaPct, prof.ShortName(row.Name))
		worst = math.Max(worst, math.Abs(row.DeltaPct))
	}
	if *threshold > 0 && worst > *threshold {
		return findings{fmt.Errorf("worst frame delta %.2fpp exceeds threshold %.2fpp", worst, *threshold)}
	}
	return nil
}

// profCheckCmd gates a profile against a committed BENCH_prof.json
// top-frames baseline (new or grown frames are findings), or rewrites the
// baseline with -update.
func profCheckCmd(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("prof check", flag.ExitOnError)
	baseline := fs.String("baseline", "BENCH_prof.json", "committed top-frames baseline")
	kind := fs.String("kind", "", "profile kind to load from capture dirs (default: the kind carrying the sample, else allocs)")
	sample := fs.String("sample", "", "sample type to aggregate (default: the baseline's recorded sample, else headline)")
	newPct := fs.Float64("new-pct", 3.0, "fail a frame absent from the baseline at or above this flat%%")
	growth := fs.Float64("growth", 1.5, "fail a known frame grown past baseline×factor")
	top := fs.Int("n", 25, "frames snapshotted with -update")
	update := fs.Bool("update", false, "rewrite the baseline from the input instead of gating")
	source := fs.String("source", "", "with -update: regeneration note stored in the baseline")
	if err := parse(fs, args, -1); err != nil {
		return err
	}
	sampleName := *sample
	var b *prof.Baseline
	if !*update {
		var err error
		b, err = prof.ReadBaseline(*baseline)
		if err != nil {
			return err
		}
		if sampleName == "" && b.Sample != "" {
			// "alloc_space/bytes" -> "alloc_space": select the same column
			// the baseline was built from.
			sampleName = strings.SplitN(b.Sample, "/", 2)[0]
		}
	}
	if *kind == "" {
		*kind = "allocs"
		if sampleName != "" {
			*kind = prof.KindForSample(sampleName)
		}
	}
	cur, files, err := loadRollup(fs.Args(), *kind, sampleName, "")
	if err != nil {
		return err
	}
	if *update {
		nb := prof.NewBaseline(cur, *top, *source)
		if err := prof.WriteBaseline(*baseline, nb); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s: %d frames, sample %s, from %d profile(s)\n",
			*baseline, len(nb.Frames), nb.Sample, len(files))
		return nil
	}
	opts := prof.CheckOpts{NewPct: *newPct, GrowthFactor: *growth, NoisePct: prof.DefaultCheckOpts().NoisePct}
	viol := prof.Check(b, cur, opts)
	if len(viol) == 0 {
		fmt.Fprintf(w, "profile check OK: %d frames within %s (%d profile(s), sample %s)\n",
			len(b.Frames), *baseline, len(files), cur.Sample)
		return nil
	}
	fmt.Fprintf(w, "profile check FAILED against %s (%d violation(s)):\n", *baseline, len(viol))
	for _, v := range viol {
		fmt.Fprintf(w, "  %s\n", v)
	}
	return findings{fmt.Errorf("%d frame(s) regressed", len(viol))}
}
