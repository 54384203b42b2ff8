#!/usr/bin/env bash
# obs_smoke.sh — end-to-end smoke test of the observability pipeline.
#
# Phase 1 runs hebsim with -obs on a 10-minute PR workload and asserts
# the three baseline artifacts exist, are non-empty, and parse:
# `hebobs check` feeds the JSONL files back through the obs package's own
# readers (so the round-trip the EXPERIMENTS.md diff recipe depends on
# is exercised for real) and requires the Prometheus exposition to carry
# the engine counters.
#
# Phase 2 turns the deep-observability layer on — per-device probes,
# the energy-conservation auditor in strict mode, and the span profiler
# — and asserts: probes.jsonl/audits.jsonl land next to the baseline
# artifacts, trace.json passes hebobs check's trace validator, hebobs trace can
# roll the trace up into per-phase self times, and the run report
# carries the battery wear line and a clean strict-audit summary.
#
# Phase 3 exercises the flight recorder end to end: record a run with
# -checkpoint-every (hebobs check validates the hash chain), kill it by
# truncating the chain and -resume (artifacts — manifest included —
# must come out byte-identical to the uninterrupted run, and the
# leftover "running" manifest must go through the killed transition),
# -replay a slot window, and hebobs bisect the run against a
# differently-budgeted recording (must find a divergence) and against
# itself (must not).
#
# Phase 4 serves the captures back: hebmon -runs scans the directory
# tree into the run registry, /healthz + /readyz come up, /api/runs
# lists every complete run, and the compare endpoint distinguishes a
# run from its differently-budgeted twin while calling the resumed
# re-recording identical to the original.
#
# Phase 5 exercises the SLO alerting layer and the hebobs watch sentinel: a
# clean run with -alerts report stays healthy (no alerts.jsonl, ok
# verdict in the manifest), a fault-injected run (-alert-soc-floor
# tightened above BaOnly's natural SoC swing) fires soc_floor criticals
# into alerts.jsonl with a critical health verdict, -alerts strict
# exits nonzero on the same breach, watch score flags the unhealthy
# capture (exit 1) while passing the clean one, watch diff
# self-compares clean, and watch bench accepts the committed
# BENCH_obs.json baseline against itself.
#
# Phase 6 exercises the labeled profile capture and hebobs prof: a profiled
# multiseed sweep (-profile cpu,heap,allocs) lands pprof protos in
# <obs>/profiles/ that hebobs check validates against the manifest's
# profiles inventory (CPU samples must carry cell labels), prof top
# attributes the allocation frames and buckets CPU by scheme, diff
# self-compares clean, check -update then gates its own baseline OK
# while a seeded fake baseline fails, check without -kind follows the
# baseline's sample to the allocs profile, and a differently-parallel
# profiled rerun
# keeps every deterministic artifact byte-identical (manifest compared
# with its wall-clock profiles section stripped).
set -euo pipefail
cd "$(dirname "$0")/.."

dir="$(mktemp -d)"
trap 'rm -rf "$dir"' EXIT

# Every artifact check below runs the one hebobs binary, linked once.
go build -o "$dir/hebobs" ./cmd/hebobs

echo "== obs smoke: hebsim -exp run -obs =="
go run ./cmd/hebsim -exp run -scheme HEB-D -workload PR -duration 10m \
	-obs "$dir/out" >"$dir/stdout.txt"

for f in events.jsonl decisions.jsonl metrics.prom; do
	[[ -s "$dir/out/$f" ]] || { echo "obs smoke: $f missing or empty" >&2; exit 1; }
done

"$dir/hebobs" check "$dir/out"

echo "== obs smoke: probes + strict audit + trace =="
go run ./cmd/hebsim -exp run -scheme HEB-D -workload PR -duration 10m \
	-obs "$dir/deep" -probes 60 -audit strict -trace "$dir/deep/trace.json" \
	>"$dir/deep_stdout.txt" 2>"$dir/deep_stderr.txt"

for f in events.jsonl decisions.jsonl metrics.prom probes.jsonl audits.jsonl trace.json; do
	[[ -s "$dir/deep/$f" ]] || { echo "obs smoke: deep $f missing or empty" >&2; exit 1; }
done

grep -q "battery wear:" "$dir/deep_stdout.txt" ||
	{ echo "obs smoke: run report lacks battery wear line" >&2; exit 1; }
grep -q 'msg="audits done" runs=1 failed=0' "$dir/deep_stderr.txt" ||
	{ echo "obs smoke: strict audit did not report a clean pass" >&2; exit 1; }

# hebobs check validates the deep artifacts too: probe/audit JSONL round-trip
# through the obs readers, every audit report passed, trace nesting valid,
# and the dropped-events counter at zero (no -allow-drops needed).
"$dir/hebobs" check "$dir/deep"

"$dir/hebobs" trace "$dir/deep/trace.json" >"$dir/rollup.txt"
grep -q "steps" "$dir/rollup.txt" ||
	{ echo "obs smoke: hebobs trace rollup lacks the steps phase" >&2; exit 1; }

echo "== obs smoke: flight recorder (checkpoint / resume / replay / bisect) =="
go run ./cmd/hebsim -exp run -scheme HEB-D -workload PR -duration 30m \
	-obs "$dir/fr" -checkpoint-every 1 >"$dir/fr_stdout.txt"
[[ -s "$dir/fr/checkpoints.jsonl" ]] ||
	{ echo "obs smoke: checkpoints.jsonl missing or empty" >&2; exit 1; }
"$dir/hebobs" check "$dir/fr" | grep -q "chain intact" ||
	{ echo "obs smoke: hebobs check did not validate the checkpoint chain" >&2; exit 1; }

# Kill-and-resume: keep only the first checkpoint (as if the run died
# right after writing it) and a still-"running" manifest (as the dead
# writer would leave behind), resume, and demand byte-identical
# artifacts plus the running -> killed lifecycle transition.
mkdir "$dir/fr_resumed"
head -1 "$dir/fr/checkpoints.jsonl" >"$dir/fr_resumed/checkpoints.jsonl"
sed 's/"status": "complete"/"status": "running"/' "$dir/fr/manifest.json" \
	>"$dir/fr_resumed/manifest.json"
go run ./cmd/hebsim -exp run -scheme HEB-D -workload PR -duration 30m \
	-obs "$dir/fr_resumed" -checkpoint-every 1 -resume \
	>"$dir/fr_resume_stdout.txt" 2>"$dir/fr_resume_stderr.txt"
grep -q "marked killed" "$dir/fr_resume_stderr.txt" ||
	{ echo "obs smoke: resume did not mark the dead writer's manifest killed" >&2; exit 1; }
for f in events.jsonl decisions.jsonl metrics.prom checkpoints.jsonl manifest.json; do
	cmp -s "$dir/fr/$f" "$dir/fr_resumed/$f" ||
		{ echo "obs smoke: $f differs between full and resumed run" >&2; exit 1; }
done

go run ./cmd/hebsim -exp run -scheme HEB-D -workload PR -duration 30m \
	-obs "$dir/fr" -replay 2-2 >"$dir/fr_replay.txt"
grep -q "replay window: slots 2-2" "$dir/fr_replay.txt" ||
	{ echo "obs smoke: replay window report missing" >&2; exit 1; }

go run ./cmd/hebsim -exp run -scheme HEB-D -workload PR -duration 30m -budget 238 \
	-obs "$dir/fr_b" -checkpoint-every 1 >/dev/null
if "$dir/hebobs" bisect "$dir/fr" "$dir/fr_b" >"$dir/bisect.txt"; then
	echo "obs smoke: hebobs bisect missed the budget divergence" >&2; exit 1
fi
grep -q "first divergence at checkpoint slot" "$dir/bisect.txt" ||
	{ echo "obs smoke: hebobs bisect report lacks the divergence line" >&2; exit 1; }
"$dir/hebobs" bisect "$dir/fr" "$dir/fr" | grep -q "no divergence" ||
	{ echo "obs smoke: hebobs bisect self-compare found a divergence" >&2; exit 1; }

echo "== obs smoke: run registry over HTTP (hebmon -runs) =="
go build -o "$dir/hebmon" ./cmd/hebmon
addr="127.0.0.1:18462"
"$dir/hebmon" -addr "$addr" -runs "$dir" -rescan 1s >"$dir/hebmon.log" 2>&1 &
hebmon_pid=$!
# The phase below stops hebmon itself; once the shell has reaped it, this
# second kill fails, which must not turn a passing run's exit status to 1.
trap 'kill "$hebmon_pid" 2>/dev/null || true; rm -rf "$dir"' EXIT

for _ in $(seq 1 50); do
	curl -fsS "http://$addr/readyz" >/dev/null 2>&1 && break
	sleep 0.2
done
curl -fsS "http://$addr/healthz" >/dev/null ||
	{ echo "obs smoke: hebmon /healthz unreachable" >&2; exit 1; }
curl -fsS "http://$addr/readyz" | grep -q "ready" ||
	{ echo "obs smoke: hebmon /readyz never reported ready" >&2; exit 1; }

# Every capture this script produced is complete; the registry must list
# them all (fr and fr_resumed are byte-identical, so they share one ID).
curl -fsS "http://$addr/api/runs" >"$dir/runs.json"
grep -q '"status":"complete"' "$dir/runs.json" ||
	{ echo "obs smoke: /api/runs lists no complete runs" >&2; exit 1; }
if grep -qE '"(capture_)?status":"(running|killed|failed)"' "$dir/runs.json"; then
	echo "obs smoke: /api/runs lists a non-complete run" >&2; exit 1
fi

# Compare the recorded run against its differently-budgeted twin (must
# diverge) and against the resumed re-recording (must be identical).
id_a=$(grep -o '"id": "[0-9a-f]*"' "$dir/fr/manifest.json" | head -1 | grep -o '[0-9a-f]\{12\}')
id_b=$(grep -o '"id": "[0-9a-f]*"' "$dir/fr_b/manifest.json" | head -1 | grep -o '[0-9a-f]\{12\}')
id_r=$(grep -o '"id": "[0-9a-f]*"' "$dir/fr_resumed/manifest.json" | head -1 | grep -o '[0-9a-f]\{12\}')
[[ -n "$id_a" && -n "$id_b" && "$id_a" != "$id_b" && "$id_a" == "$id_r" ]] ||
	{ echo "obs smoke: manifest run IDs inconsistent ($id_a/$id_b/$id_r)" >&2; exit 1; }

curl -fsS "http://$addr/api/runs/$id_a/compare/$id_b" >"$dir/cmp_ab.json"
grep -q '"same_config":false' "$dir/cmp_ab.json" ||
	{ echo "obs smoke: budget twin reported as same config" >&2; exit 1; }
grep -q '"delta":' "$dir/cmp_ab.json" ||
	{ echo "obs smoke: budget twin shows no metric deltas" >&2; exit 1; }

curl -fsS "http://$addr/api/runs/$id_a/compare/$id_r" >"$dir/cmp_ar.json"
grep -q '"identical":true' "$dir/cmp_ar.json" ||
	{ echo "obs smoke: resumed re-recording not identical to original" >&2; exit 1; }

kill "$hebmon_pid" 2>/dev/null

echo "== obs smoke: SLO alerts + hebobs watch sentinel =="
# Clean run with the rule engine on: default thresholds fire nothing.
go run ./cmd/hebsim -exp run -scheme HEB-D -workload PR -duration 10m \
	-obs "$dir/alerts_clean" -alerts report >/dev/null 2>"$dir/clean_stderr.txt"
grep -q 'msg="alerts done" runs=1 unhealthy=0 criticals=0' "$dir/clean_stderr.txt" ||
	{ echo "obs smoke: clean run did not report healthy alerts" >&2; exit 1; }
[[ -e "$dir/alerts_clean/alerts.jsonl" ]] &&
	{ echo "obs smoke: clean run wrote alerts.jsonl" >&2; exit 1; }
grep -q '"health": "ok"' "$dir/alerts_clean/manifest.json" ||
	{ echo "obs smoke: clean manifest lacks the ok health verdict" >&2; exit 1; }
"$dir/hebobs" check "$dir/alerts_clean"

# Seeded fault injection: a SoC floor above BaOnly's natural swing must
# fire soc_floor criticals; report mode records the breach, strict mode
# fails the run.
go run ./cmd/hebsim -exp run -scheme BaOnly -workload PR -duration 2h \
	-obs "$dir/alerts_breach" -alerts report -alert-soc-floor 0.5 \
	>/dev/null 2>"$dir/breach_stderr.txt"
grep -q '"kind":"soc_floor","severity":"critical"' "$dir/alerts_breach/alerts.jsonl" ||
	{ echo "obs smoke: breach capture lacks the soc_floor critical" >&2; exit 1; }
grep -q '"health": "critical"' "$dir/alerts_breach/manifest.json" ||
	{ echo "obs smoke: breach manifest lacks the critical health verdict" >&2; exit 1; }
"$dir/hebobs" check "$dir/alerts_breach"

if go run ./cmd/hebsim -exp run -scheme BaOnly -workload PR -duration 2h \
	-alerts strict -alert-soc-floor 0.5 >/dev/null 2>"$dir/strict_stderr.txt"; then
	echo "obs smoke: -alerts strict did not fail the breached run" >&2; exit 1
fi
grep -q "alert SLOs failed" "$dir/strict_stderr.txt" ||
	{ echo "obs smoke: strict failure lacks the SLO error" >&2; exit 1; }

# hebobs watch: the clean capture scores without criticals, the breach
# capture's health verdict escalates to exit 1, diff self-compares
# clean, and the committed benchmark baseline passes against itself.
"$dir/hebobs" watch score "$dir/alerts_clean" | grep -q " 0 critical" ||
	{ echo "obs smoke: hebobs watch score flagged the clean capture" >&2; exit 1; }
if "$dir/hebobs" watch score "$dir/alerts_breach" >"$dir/score_breach.txt"; then
	echo "obs smoke: hebobs watch score missed the breached run" >&2; exit 1
fi
grep -q "health=critical" "$dir/score_breach.txt" ||
	{ echo "obs smoke: hebobs watch score lacks the health escalation" >&2; exit 1; }
"$dir/hebobs" watch diff "$dir/alerts_clean" "$dir/alerts_clean" | grep -q "0 critical, 0 warn" ||
	{ echo "obs smoke: hebobs watch diff dirtied a self-compare" >&2; exit 1; }
"$dir/hebobs" watch bench BENCH_obs.json BENCH_obs.json | grep -q "within tolerance" ||
	{ echo "obs smoke: hebobs watch bench rejected the committed baseline" >&2; exit 1; }

echo "== obs smoke: labeled profiles + hebobs prof round-trip =="
# A multiseed sweep burns enough CPU for the 100 Hz sampler to land
# labeled samples; 24h simulated per cell keeps the phase fast.
go run ./cmd/hebsim -exp multiseed -duration 24h -workers 2 \
	-obs "$dir/prof_a" -profile cpu,heap,allocs >"$dir/prof_a_stdout.txt"
for k in cpu heap allocs; do
	[[ -s "$dir/prof_a/profiles/$k.pb.gz" ]] ||
		{ echo "obs smoke: profiles/$k.pb.gz missing or empty" >&2; exit 1; }
done
# hebobs check must verify the inventory (existence, hashes, parse, and the
# cell labels on the CPU samples).
"$dir/hebobs" check "$dir/prof_a" | grep -q "3 profiles validated" ||
	{ echo "obs smoke: hebobs check did not validate the profile inventory" >&2; exit 1; }

"$dir/hebobs" prof top -kind allocs "$dir/prof_a" >"$dir/top_allocs.txt"
grep -q "alloc_space/bytes" "$dir/top_allocs.txt" ||
	{ echo "obs smoke: hebobs prof top did not aggregate alloc_space" >&2; exit 1; }
"$dir/hebobs" prof top -kind cpu -by scheme "$dir/prof_a" >"$dir/top_cpu.txt"
grep -q "by scheme:" "$dir/top_cpu.txt" ||
	{ echo "obs smoke: hebobs prof top -by scheme lacks the label buckets" >&2; exit 1; }

# diff against itself is clean; check -update writes a baseline the
# same capture then passes, while a fabricated baseline whose dominant
# frame never ran must fail the gate.
"$dir/hebobs" prof diff -kind allocs "$dir/prof_a" "$dir/prof_a" | grep -q "Δpp" ||
	{ echo "obs smoke: hebobs prof diff lacks the delta column" >&2; exit 1; }
"$dir/hebobs" prof check -kind allocs -baseline "$dir/prof_baseline.json" -update \
	-source "obs_smoke phase 6" "$dir/prof_a" >/dev/null
"$dir/hebobs" prof check -kind allocs -baseline "$dir/prof_baseline.json" "$dir/prof_a" |
	grep -q "profile check OK" ||
	{ echo "obs smoke: hebobs prof check rejected its own baseline" >&2; exit 1; }
printf '%s\n' '{"v":1,"sample":"alloc_space/bytes","frames":[{"name":"no.suchFrame","flat_pct":95}]}' \
	>"$dir/prof_fake.json"
if "$dir/hebobs" prof check -kind allocs -baseline "$dir/prof_fake.json" "$dir/prof_a" \
	>"$dir/check_fake.txt"; then
	echo "obs smoke: hebobs prof check passed a fabricated baseline" >&2; exit 1
fi
grep -q "new-frame" "$dir/check_fake.txt" ||
	{ echo "obs smoke: hebobs prof check did not flag the new frames" >&2; exit 1; }
# Without -kind, prof check loads the profile kind that carries the
# baseline's sample (allocs for this alloc_space baseline).
"$dir/hebobs" prof check -baseline "$dir/prof_baseline.json" "$dir/prof_a" | grep -q "profile check OK" ||
	{ echo "obs smoke: hebobs prof check did not follow the baseline's sample kind" >&2; exit 1; }

# Determinism with profiling on: a differently-parallel rerun keeps the
# deterministic artifacts byte-identical; only the wall-clock profiles
# section of the manifest may differ.
go run ./cmd/hebsim -exp multiseed -duration 24h -workers 1 \
	-obs "$dir/prof_b" -profile cpu,heap,allocs >/dev/null
for f in events.jsonl decisions.jsonl metrics.prom; do
	cmp -s "$dir/prof_a/$f" "$dir/prof_b/$f" ||
		{ echo "obs smoke: $f differs across -workers with profiling on" >&2; exit 1; }
done
if ! python3 - "$dir/prof_a/manifest.json" "$dir/prof_b/manifest.json" <<'EOF'
import json, sys
a, b = (json.load(open(p)) for p in sys.argv[1:3])
for m in (a, b):
    m.pop("profiles", None)
sys.exit(0 if a == b else 1)
EOF
then
	echo "obs smoke: manifests differ outside the profiles section" >&2; exit 1
fi

echo "obs smoke: OK"
