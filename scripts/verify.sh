#!/usr/bin/env bash
# verify.sh — the repo's verification tiers.
#
# Tier 1 (the CI gate): build + full test suite.
# Tier 2: static analysis and the race detector. The focused -race pass
# hits the observability/monitoring/runner packages first (the code with
# real cross-goroutine traffic) for a fast failure, then the full suite
# exercises the parallel sweep runner under contention.
# Tier 3: the end-to-end observability smoke test (hebsim -obs artifacts
# parse back through the obs readers, plus the probes/audit/trace deep
# pipeline through hebobs check and hebobs trace).
# Tier 4: docs drift — regenerate the committed hebsim -exp all output
# (timing columns normalized) and fail if it no longer matches
# docs/hebsim_all_output.txt. CI's test job runs the same check.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier 1: go build + go test =="
go build ./...
go test ./...

echo "== tier 2: go vet + go test -race =="
go vet ./...
go test -race ./internal/obs/... ./internal/telemetry/... ./internal/runner/...
go test -race ./...

echo "== tier 3: observability smoke =="
scripts/obs_smoke.sh

echo "== tier 4: docs drift =="
scripts/update_docs.sh -check

echo "verify: OK"
