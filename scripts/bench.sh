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
# the PAT layer's rows: BenchmarkSeedPAT at x1 and x16 (the profiling the
# unpooled path runs per cell, internal/core), BenchmarkLookupSimilar (a
# PAT miss's nearest-entry scan, internal/pat) and
# BenchmarkRunStateResetScale (a pooled x16 HEB-D reset, which restores
# the PAT from its seeded image);
# the ESD layer's device steps (internal/esd): battery discharge and
# charge, thermal and aged (capacity fade on, so every discharge
# refreshes the cached capacity terms) battery discharge, super-capacitor
# discharge and rest, a hybrid pool discharge and the uniform vs
# per-member pool transfer at x2 and x32, all gated at 0 allocs/op;
# the Sequential/Parallel pair is the wall-clock headline for the shared
# runner (internal/runner) and needs GOMAXPROCS >= 4 to show a speedup.
#
# The obs set runs the same HEB-D hour with one hook family on each: Obs
# (event log + decision trace), Probes (per-device probes + energy
# auditor + the run tracer's one span per run), Checkpoint (state snapshots at slot
# boundaries), Manifest (capture run-index rows built from contributed
# artifacts, no file IO), Alerts (the SLO rule engine, internal/obs/alerts)
# and Prof (internal/obs/prof cell labels on the engine hot loop).
# BenchmarkCaptureWriteFiles times the file half of a flight-recorder
# run: one hooks-on 2 h HEB-D capture written to a temp directory.
# BenchmarkCaptureBuildManifest times the same capture's snapshot, JSONL
# encode and manifest into io.Discard, with no disk, so its ns/op is the
# encode path's without file-system noise. BenchmarkReadCheckpoints reads
# the same capture's checkpoints.jsonl back through obs.ReadCheckpoints,
# the read half of every resume, replay, check and bisect. The
# hooks-off path is BenchmarkEngineStep itself, gated on exact allocs/op
# in the sweep set; the tier-1 test TestHooksOffAllocsIndependentOfRunLength
# is what proves every nil-guarded hook costs nothing when off.
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
# A failing set or gate does not stop -check: it records the failure,
# runs every remaining set and gate, then exits non-zero naming each
# one that failed.
#
# On top of the baseline comparison, -check holds the measured run to
# the zero-alloc/checkpoint targets (absolute, independent of the
# committed baselines):
#   - BenchmarkEngineReuse allocs/op < 100 — pooled run-state reuse
#     keeps the whole construct/step/finish cycle allocation-free.
#   - BenchmarkSeedPAT/x1, BenchmarkSeedPAT/x16,
#     BenchmarkRunStateResetScale and every ESD device-step row
#     allocs/op == 0 — seeding a reset table, restoring a pooled one
#     from its image and stepping a device allocate nothing.
#   - BenchmarkEngineCheckpointEnabled B/op < 400000 — the checkpoint
#     chain's allocation budget.
#   - CheckpointEnabled ns/op <= EngineStep x 1.2 (overhead target) x the
#     ns_tol noise allowance. The deterministic columns above are gated
#     exactly; the ratio shares the wall-clock tolerance because
#     single-run timings are noisy.
#   - AlertsEnabled and ProbesEnabled ns/op <= EngineStep x 2.0 (the
#     invariant checker's overhead target) x the same ns_tol allowance.
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
# profiler and leaves the pprof proto at $scratch/engine_mem.pprof. It
# records every allocation (-memprofilerate 1): at the default sampling
# rate the small frames' shares move by 2x between runs, past the gate.
engine_memprofile() {
	go test -run '^$' -bench 'BenchmarkEngineStep$' -count=1 -memprofilerate 1 \
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

# failed names each -check set or gate that failed.
failed=()

run_set() {
	local pattern="$1" out="$2"
	shift 2
	go test -run '^$' -bench "$pattern" -benchmem -count=1 "${@:-.}" | tee "$raw"
	cat "$raw" >>"$scratch/all_raw.txt"
	if [[ "$check" == 1 ]]; then
		local cur
		cur="$(mktemp)"
		to_json <"$raw" >"$cur"
		if ! go run ./cmd/hebobs watch bench -ns-tol "$ns_tol" "$cur" "$out"; then
			echo "bench.sh: regression against $out" >&2
			failed+=("$out")
		fi
		rm -f "$cur"
	else
		to_json <"$raw" >"$out"
		echo "wrote $out"
	fi
}

esd_rows='BenchmarkBatteryDischargeStep BenchmarkBatteryChargeStep BenchmarkThermalBatteryDischargeStep BenchmarkAgedBatteryDischargeStep BenchmarkSupercapDischargeStep BenchmarkSupercapRest BenchmarkHybridPoolDischarge BenchmarkUniformPoolTransfer/uniform/x2 BenchmarkUniformPoolTransfer/newpool/x2 BenchmarkUniformPoolTransfer/uniform/x32 BenchmarkUniformPoolTransfer/newpool/x32'

run_set 'BenchmarkMultiSeedSequential|BenchmarkMultiSeedParallel|BenchmarkEngineStep$|BenchmarkEngineReuse$|BenchmarkEngineStepScale$|BenchmarkRunStateResetScale$|BenchmarkSeedPAT$|BenchmarkLookupSimilar$|BenchmarkBatteryDischargeStep$|BenchmarkBatteryChargeStep$|BenchmarkThermalBatteryDischargeStep$|BenchmarkAgedBatteryDischargeStep$|BenchmarkSupercapDischargeStep$|BenchmarkSupercapRest$|BenchmarkHybridPoolDischarge$|BenchmarkUniformPoolTransfer$' "$sweep_out" . ./internal/core ./internal/pat ./internal/esd
run_set 'BenchmarkEngineObsEnabled|BenchmarkEngineProbesEnabled|BenchmarkEngineCheckpointEnabled|BenchmarkEngineManifestEnabled|BenchmarkEngineAlertsEnabled|BenchmarkEngineProfEnabled|BenchmarkCaptureWriteFiles$|BenchmarkCaptureBuildManifest$|BenchmarkReadCheckpoints$' "$obs_out"

# Target gates (see header): absolute holds on the measured run, applied
# over the raw benchmark output of both sets so they bind even as the
# committed baselines move.
if [[ "$check" == 1 ]]; then
	ncpu="${GOMAXPROCS:-$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)}"
	if ! awk -v ns_tol="$ns_tol" -v ncpu="$ncpu" -v esd_rows="$esd_rows" '
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
		split("BenchmarkSeedPAT/x1 BenchmarkSeedPAT/x16 BenchmarkRunStateResetScale " esd_rows, zero, " ")
		for (i in zero) {
			if (need(zero[i]) && allocs[zero[i]] + 0 != 0) {
				printf "TARGET %s: allocs/op %s, target 0\n", zero[i], allocs[zero[i]]
				bad = 1
			}
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
		split("BenchmarkEngineAlertsEnabled BenchmarkEngineProbesEnabled", checked, " ")
		for (i in checked) {
			if (need(checked[i]) && need("BenchmarkEngineStep")) {
				lim = ns["BenchmarkEngineStep"] * 2.0 * ns_tol
				if (ns[checked[i]] + 0 > lim) {
					printf "TARGET checker overhead: %s %s ns/op vs EngineStep %s exceeds 2.0x target with %gx noise allowance\n",
						checked[i], ns[checked[i]], ns["BenchmarkEngineStep"], ns_tol
					bad = 1
				}
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
		failed+=("targets")
	else
		echo "ok: zero-alloc/checkpoint/checker targets hold"
	fi
fi

# Profile gate: with a committed top-frames baseline, re-attribute the
# engine hot loop and fail on new or grown frames (the gate `hebobs prof
# check` applies to profiled captures).
if [[ "$check" == 1 && -f "$prof_base" ]]; then
	engine_memprofile
	if ! go run ./cmd/hebobs prof check -baseline "$prof_base" "$scratch/engine_mem.pprof"; then
		echo "bench.sh: profile regression against $prof_base" >&2
		failed+=("$prof_base")
	fi
fi

if ((${#failed[@]})); then
	echo "bench.sh: failed: ${failed[*]}" >&2
	exit 1
fi
