#!/usr/bin/env bash
# bench.sh — sweep, engine and observability benchmarks, reported as
# BENCH_sweep.json and BENCH_obs.json.
#
# The sweep set runs the multi-seed sequential/parallel pair plus the raw
# engine throughput benchmark and its pooled-reuse counterpart
# (BenchmarkEngineReuse: the same hour checked out of a warmed RunCache),
# and BenchmarkEngineStepScale, the per-server hot loop at 96 servers (a
# pooled x16 HEB-D hour on the mismatch-heavy DA workload), whose exact
# allocs/op gate keeps that loop allocation-free as servers grow;
# the Sequential/Parallel pair is the wall-clock headline for the shared
# runner (internal/runner) and needs GOMAXPROCS >= 4 to show a speedup.
#
# The obs set runs the same HEB-D hour with one hook family on each: Obs
# (event log + decision trace), Probes (per-device probes + energy
# auditor + span tracer), Checkpoint (state snapshots at slot
# boundaries), Manifest (capture run-index rows built from contributed
# artifacts, no file IO), Alerts (the SLO rule engine, internal/obs/alerts)
# and Prof (internal/obs/prof cell labels on the engine hot loop).
# BenchmarkCaptureWriteFiles times the file half of a flight-recorder
# run: one hooks-on 2 h HEB-D capture written to a temp directory. The
# hooks-off path is BenchmarkEngineStep itself: its exact allocs/op gate
# in the sweep set proves every nil-guarded hook costs nothing when off.
#
# Usage:
#   scripts/bench.sh [sweep.json [obs.json]]   measure and write baselines
#   scripts/bench.sh -check                    measure and compare against
#                                              the committed baselines
#   scripts/bench.sh -profile [prof.json]      attribute the engine hot
#                                              loop: run BenchmarkEngineStep
#                                              under -memprofile and rewrite
#                                              the BENCH_prof.json top-frames
#                                              baseline via hebobs prof check
#
# -check compares each set against its committed baseline with
# `hebobs watch bench` (cmd/hebobs), which holds the tolerances: allocs/op
# exact (deterministic) except ±8 for the MultiSeed pair, ProfEnabled and
# CaptureWriteFiles, whose pools and pprof buffers wobble; ns/op at most
# 1.5x the baseline (wall-clock is noisy across machines, so only gross
# regressions fail).
# When BENCH_prof.json is committed, -check additionally re-runs
# the engine memprofile and gates its frame shares through `hebobs prof
# check` (new frames >= 3% flat, known frames grown past 1.5x fail).
# Exits non-zero on any violation.
#
# On top of the baseline comparison, -check holds the measured run to
# the zero-alloc/checkpoint targets (absolute, independent of the
# committed baselines):
#   - BenchmarkEngineReuse allocs/op < 100 — pooled run-state reuse
#     keeps the whole construct/step/finish cycle allocation-free.
#   - BenchmarkEngineCheckpointEnabled B/op < 400000 — the checkpoint
#     chain's allocation budget.
#   - CheckpointEnabled ns/op <= EngineStep x 1.2 (overhead target) x the
#     ns_tol noise allowance. The deterministic columns above are gated
#     exactly; the ratio shares the wall-clock tolerance because
#     single-run timings are noisy.
#   - MultiSeedParallel >= 2x MultiSeedSequential, gated only when the
#     box has >= 4 CPUs — on fewer the pair is wall-clock identical by
#     construction and the gate prints a skip note instead.
set -euo pipefail
cd "$(dirname "$0")/.."

check=0
profile=0
case "${1:-}" in
-check) check=1; shift ;;
-profile) profile=1; shift ;;
esac
sweep_out="${1:-BENCH_sweep.json}"
obs_out="${2:-BENCH_obs.json}"
prof_base="BENCH_prof.json"
raw="$(mktemp)"
scratch="$(mktemp -d)"
trap 'rm -f "$raw"; rm -rf "$scratch"' EXIT

# engine_memprofile reruns the hot-loop benchmark under the allocation
# profiler and leaves the pprof proto at $scratch/engine_mem.pprof.
engine_memprofile() {
	go test -run '^$' -bench 'BenchmarkEngineStep$' -count=1 \
		-memprofile "$scratch/engine_mem.pprof" -outputdir "$scratch" . >/dev/null
	rm -f heb.test
}

if [[ "$profile" == 1 ]]; then
	prof_base="${1:-BENCH_prof.json}"
	echo "profiling BenchmarkEngineStep (allocation attribution)..."
	engine_memprofile
	go run ./cmd/hebobs prof check -update -baseline "$prof_base" -sample alloc_space \
		-source "scripts/bench.sh -profile: go test -bench BenchmarkEngineStep -memprofile" \
		"$scratch/engine_mem.pprof"
	exit 0
fi

# to_json parses `go test -bench` output on stdin into one JSON object
# per benchmark with ns/op, allocs/op, B/op and simSteps/s.
to_json() {
	awk '
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		ns = allocs = bytes = steps = "null"
		for (i = 2; i < NF; i++) {
			if ($(i + 1) == "ns/op") ns = $i
			else if ($(i + 1) == "allocs/op") allocs = $i
			else if ($(i + 1) == "B/op") bytes = $i
			else if ($(i + 1) == "simSteps/s") steps = $i
		}
		printf "%s{\"name\":\"%s\",\"ns_per_op\":%s,\"allocs_per_op\":%s,\"bytes_per_op\":%s,\"sim_steps_per_second\":%s}", sep, name, ns, allocs, bytes, steps
		sep = ",\n  "
	}
	BEGIN { printf "{\"benchmarks\": [\n  " }
	END { printf "\n]}\n" }
	'
}

# ns/op growth tolerance for the baseline comparison and the checkpoint
# overhead target below.
ns_tol=1.5

run_set() {
	local pattern="$1" out="$2"
	go test -run '^$' -bench "$pattern" -benchmem -count=1 . | tee "$raw"
	cat "$raw" >>"$scratch/all_raw.txt"
	if [[ "$check" == 1 ]]; then
		local cur
		cur="$(mktemp)"
		to_json <"$raw" >"$cur"
		if ! go run ./cmd/hebobs watch bench -ns-tol "$ns_tol" "$cur" "$out"; then
			rm -f "$cur"
			echo "bench.sh: regression against $out" >&2
			exit 1
		fi
		rm -f "$cur"
	else
		to_json <"$raw" >"$out"
		echo "wrote $out"
	fi
}

run_set 'BenchmarkMultiSeedSequential|BenchmarkMultiSeedParallel|BenchmarkEngineStep$|BenchmarkEngineReuse$|BenchmarkEngineStepScale$' "$sweep_out"
run_set 'BenchmarkEngineObsEnabled|BenchmarkEngineProbesEnabled|BenchmarkEngineCheckpointEnabled|BenchmarkEngineManifestEnabled|BenchmarkEngineAlertsEnabled|BenchmarkEngineProfEnabled|BenchmarkCaptureWriteFiles$' "$obs_out"

# Target gates (see header): absolute holds on the measured run, applied
# over the raw benchmark output of both sets so they bind even as the
# committed baselines move.
if [[ "$check" == 1 ]]; then
	ncpu="${GOMAXPROCS:-$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)}"
	if ! awk -v ns_tol="$ns_tol" -v ncpu="$ncpu" '
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		for (i = 2; i < NF; i++) {
			if ($(i + 1) == "ns/op") ns[name] = $i
			else if ($(i + 1) == "allocs/op") allocs[name] = $i
			else if ($(i + 1) == "B/op") bytes[name] = $i
		}
	}
	function need(name) {
		if (name in ns) return 1
		printf "TARGET %s: not measured\n", name
		bad = 1
		return 0
	}
	END {
		bad = 0
		if (need("BenchmarkEngineReuse") && allocs["BenchmarkEngineReuse"] + 0 >= 100) {
			printf "TARGET BenchmarkEngineReuse: allocs/op %s, target < 100\n", allocs["BenchmarkEngineReuse"]
			bad = 1
		}
		if (need("BenchmarkEngineCheckpointEnabled") && bytes["BenchmarkEngineCheckpointEnabled"] + 0 >= 400000) {
			printf "TARGET BenchmarkEngineCheckpointEnabled: B/op %s, target < 400000\n", bytes["BenchmarkEngineCheckpointEnabled"]
			bad = 1
		}
		if (need("BenchmarkEngineCheckpointEnabled") && need("BenchmarkEngineStep")) {
			lim = ns["BenchmarkEngineStep"] * 1.2 * ns_tol
			if (ns["BenchmarkEngineCheckpointEnabled"] + 0 > lim) {
				printf "TARGET checkpoint overhead: Enabled %s ns/op vs EngineStep %s exceeds 1.2x target with %gx noise allowance\n",
					ns["BenchmarkEngineCheckpointEnabled"], ns["BenchmarkEngineStep"], ns_tol
				bad = 1
			}
		}
		if (ncpu + 0 >= 4) {
			if (need("BenchmarkMultiSeedSequential") && need("BenchmarkMultiSeedParallel") &&
				ns["BenchmarkMultiSeedParallel"] + 0 > ns["BenchmarkMultiSeedSequential"] / 2) {
				printf "TARGET multiseed speedup: Parallel %s ns/op vs Sequential %s is below 2x on %d CPUs\n",
					ns["BenchmarkMultiSeedParallel"], ns["BenchmarkMultiSeedSequential"], ncpu
				bad = 1
			}
		} else {
			printf "note: multiseed >= 2x speedup gate skipped (%d CPUs; needs >= 4)\n", ncpu
		}
		exit bad
	}
	' "$scratch/all_raw.txt"; then
		echo "bench.sh: target gate violation" >&2
		exit 1
	fi
	echo "ok: zero-alloc/checkpoint targets hold"
fi

# Profile gate: with a committed top-frames baseline, re-attribute the
# engine hot loop and fail on new or grown frames (the gate `hebobs prof
# check` applies to profiled captures).
if [[ "$check" == 1 && -f "$prof_base" ]]; then
	engine_memprofile
	if ! go run ./cmd/hebobs prof check -baseline "$prof_base" "$scratch/engine_mem.pprof"; then
		echo "bench.sh: profile regression against $prof_base" >&2
		exit 1
	fi
fi
