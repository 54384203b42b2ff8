// Command hebobs inspects what hebsim runs leave behind — capture
// directories (`hebsim -obs dir/`, with the `-trace` file if written
// there), scripts/bench.sh JSON and pprof profiles — one subcommand per
// question:
//
//	check   is this capture complete, parseable and honest?
//	bisect  where do two recorded runs first diverge?
//	watch   which runs or cohorts are outliers (score, diff), and did a
//	        benchmark regress (bench)?
//	prof    where do profiled runs spend CPU or allocations (top), what
//	        moved between two of them (diff), and does a profile still
//	        fit the BENCH_prof.json baseline (check)?
//
// Run hebobs without arguments for each subcommand's synopsis. Exit
// status: 0 clean, 1 findings (a failed check, a divergence, a critical
// score, a regression), 2 usage or read errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"heb/internal/obs"
)

// commands lists every subcommand with its synopsis. A subcommand's run
// parses its own flags from args and writes its report to w.
var commands = []struct {
	name, synopsis string
	run            func(w io.Writer, args []string) error
}{
	{"check", "[-allow-drops] [-per-run] dir/", checkCmd},
	{"bisect", "[-run-a KEY] [-run-b KEY] [-tol F] [-ignore F,...] [-max-diffs N] dirA/ dirB/", bisectCmd},
	{"watch score", "[-run ID] [-window N] [-min-cohort N] root/", watchScoreCmd},
	{"watch diff", "[-window N] [-min-cohort N] rootA/ rootB/", watchDiffCmd},
	{"watch bench", "[-ns-tol R] current.json baseline.json", watchBenchCmd},
	{"prof top", "[-kind cpu] [-sample S] [-n 20] [-by LABEL] input...", profTopCmd},
	{"prof diff", "[-kind cpu] [-sample S] [-min 1] [-threshold 5] base new", profDiffCmd},
	{"prof check", "[-baseline BENCH_prof.json] [-kind K] [-sample S] [-update] input...", profCheckCmd},
}

func main() {
	args := os.Args[1:]
	for _, c := range commands {
		words := strings.Fields(c.name)
		if len(args) < len(words) || strings.Join(args[:len(words)], " ") != c.name {
			continue
		}
		err := c.run(os.Stdout, args[len(words):])
		if err == nil {
			return
		}
		var f findings
		if errors.Is(err, errUsage) {
			fmt.Fprintf(os.Stderr, "usage: hebobs %s %s\n", c.name, c.synopsis)
		} else {
			fmt.Fprintf(os.Stderr, "hebobs %s: %v\n", c.name, err)
		}
		if errors.As(err, &f) {
			os.Exit(1)
		}
		os.Exit(2)
	}
	if len(args) == 1 && (args[0] == "-h" || strings.TrimLeft(args[0], "-") == "help") {
		usage(os.Stdout)
		return
	}
	usage(os.Stderr)
	os.Exit(2)
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: hebobs <command> [flags] args...")
	for _, c := range commands {
		fmt.Fprintf(w, "  hebobs %s %s\n", c.name, c.synopsis)
	}
	fmt.Fprintln(w, "\nA prof input is a pprof file, a capture dir (its profiles/) or a tree of capture dirs (merged).")
	fmt.Fprintln(w, "Exit status: 0 clean, 1 findings, 2 usage or read errors.")
}

// findings is a subcommand's verdict against its input (exit 1), as
// opposed to a usage or read error (exit 2).
type findings struct{ error }

// errUsage reports a subcommand given the wrong positional arguments.
var errUsage = errors.New("usage")

// found turns a count of critical findings into a findings error.
func found(n int, err error) error {
	if err == nil && n > 0 {
		return findings{fmt.Errorf("%d critical finding(s)", n)}
	}
	return err
}

// parse parses a subcommand's flags and checks its positional arguments:
// exactly n of them, or at least one when n < 0. A malformed flag exits
// 2 through fs's ExitOnError handling.
func parse(fs *flag.FlagSet, args []string, n int) error {
	fs.Parse(args)
	if n < 0 && fs.NArg() == 0 || n >= 0 && fs.NArg() != n {
		return errUsage
	}
	return nil
}

// readArtifact parses dir/name with read. ok is false, with a nil error,
// when the file does not exist; parse errors carry the file name.
func readArtifact[T any](dir, name string, read func(io.Reader) (T, error)) (v T, ok bool, err error) {
	f, err := os.Open(filepath.Join(dir, name))
	if os.IsNotExist(err) {
		return v, false, nil
	} else if err != nil {
		return v, false, err
	}
	defer f.Close()
	if v, err = read(f); err != nil {
		return v, true, fmt.Errorf("%s: %w", name, err)
	}
	return v, true, nil
}

// ofRun keeps the records whose run key (as reported by run) is key.
func ofRun[T any](xs []T, key string, run func(T) string) []T {
	var out []T
	for _, x := range xs {
		if run(x) == key {
			out = append(out, x)
		}
	}
	return out
}

// readTrace parses a Chrome trace-event file and validates it against
// the format rules Perfetto enforces.
func readTrace(r io.Reader) ([]obs.TraceEvent, error) {
	events, err := obs.ReadChromeTrace(r)
	if err == nil {
		err = obs.ValidateTrace(events)
	}
	return events, err
}
