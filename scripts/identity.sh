#!/usr/bin/env bash
# identity.sh — check that the working tree's hebsim writes the same
# captures as a given revision's, byte for byte: the check a refactor
# that must not change behaviour runs before it lands.
#
# It builds cmd/hebsim at REV (from a `git archive` of it in a temporary
# directory, so an interrupted run leaves nothing registered in .git)
# and from the working tree, runs each capture command below with both
# binaries into the same path, and diffs the capture directories with
# `diff -r` (printing its first 40 lines). hebsim's stdout is not
# compared: its scale section carries wall-clock columns, and
# scripts/update_docs.sh -check covers the rest.
#
# Not a CI step: a change that alters outputs on purpose fails it.
#
# Usage: scripts/identity.sh [rev]   # rev defaults to HEAD
# Exit status: 0 identical, 1 any difference, 2 usage or build error.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -gt 1 ]; then
	echo "usage: scripts/identity.sh [rev]" >&2
	exit 2
fi
rev="${1:-HEAD}"
if ! git rev-parse --verify --quiet "$rev^{commit}" >/dev/null; then
	echo "identity: unknown revision $rev" >&2
	exit 2
fi

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

mkdir "$work/src"
git archive "$rev" | tar -x -C "$work/src"
(cd "$work/src" && go build -o "$work/hebsim.rev" ./cmd/hebsim) || exit 2
go build -o "$work/hebsim.tree" ./cmd/hebsim || exit 2

# Each command writes its capture into the directory named by -obs.
captures=(
	"-exp all -duration 1h -workers 2 -audit report -alerts report -probes 60"
	"-exp run -duration 2h -checkpoint-every 1 -probes 60 -audit report -alerts report"
)

status=0
for i in "${!captures[@]}"; do
	for side in rev tree; do
		# Both sides write to one path, so nothing that records the
		# capture directory can differ between them.
		rm -rf "$work/capture"
		# shellcheck disable=SC2086 # the command is a word list
		"$work/hebsim.$side" ${captures[$i]} -obs "$work/capture" >/dev/null 2>&1 ||
			{ echo "identity: hebsim ($side) failed: ${captures[$i]}" >&2; exit 2; }
		mv "$work/capture" "$work/$side.$i"
	done
	# pipefail keeps diff's status; head keeps a large diff readable.
	if diff -r "$work/rev.$i" "$work/tree.$i" | head -n 40; then
		echo "identity: same: hebsim ${captures[$i]}"
	else
		echo "identity: DIFFERENT from $rev: hebsim ${captures[$i]}" >&2
		status=1
	fi
done
exit "$status"
