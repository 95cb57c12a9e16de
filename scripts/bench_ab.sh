#!/usr/bin/env bash
# Paired A/B run of the repository benchmark (BENCHMARK.json):
#
#   scripts/bench_ab.sh <rev> <workload> <pairs>
#
# Exports <rev> with git archive into a temporary directory, then for
# k = 1..pairs runs `bench/run.sh --workload W --seed k --seconds 12
# --trace 0` once in that tree ("parent") and once in this checkout
# ("change", working-tree edits included), alternating which side goes
# first so a drifting machine speed does not favour one side. Prints each
# run's result line, then scripts/bench_summary.awk's table: per
# end-to-end metric both medians, their ratio (change/parent), the pairs
# the change won and each side's quartiles with its min–max in brackets.
# Exits 1 on a regression: a change median worse than the parent's by
# more than the metric's bound in BENCHMARK.json, or more failed
# operations. A claimed gain is still the reader's to judge: the wins
# against the pair count, the median shift against the parent's
# quartiles.
#
# Slow (a cold build per tree plus ~25 s per run), so not part of
# `make ci`. The temporary tree is removed on exit; a run interrupted by
# SIGINT/SIGTERM is terminated, and bench/run.sh stops its own children.
set -euo pipefail
if [ $# -ne 3 ]; then
	echo "usage: $0 <rev> <workload> <pairs>" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=$3
cd "$(dirname "$0")/.."
change=$PWD
tmp=$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")
parent=$tmp/tree
child=
cleanup() {
	if [ -n "$child" ]; then
		kill "$child" 2>/dev/null || true
		wait "$child" 2>/dev/null || true
	fi
	rm -rf "$tmp"
}
trap cleanup EXIT
trap 'exit 130' INT TERM
mkdir "$parent"
git archive "$rev" | tar -x -C "$parent"

# run SIDE TREE SEED: one measurement; appends "side metric seed value"
# rows.
run() {
	local side=$1 tree=$2 seed=$3 line
	# In the background and waited for, so a signal to this script is
	# handled at once and the trap can stop the run.
	bash "$tree/bench/run.sh" --workload "$workload" --seed "$seed" --seconds 12 --trace 0 \
		>"$tmp/out" 2>"$tmp/err" &
	child=$!
	if ! wait "$child"; then
		child=
		echo "$side seed $seed: bench/run.sh failed:" >&2
		tail -n 20 "$tmp/err" >&2
		exit 1
	fi
	child=
	line=$(tail -n 1 "$tmp/out")
	echo "$side $seed: $line"
	printf '%s\n' "$line" | grep -o '"[a-z_]*":{"value":[-0-9.eE+]*' |
		sed "s/^\"\\([a-z_]*\\)\":{\"value\":/$side \\1 $seed /" >>"$tmp/rows"
	printf '%s\n' "$line" | grep -o '"failed":[0-9]*' | sed "s/^\"failed\":/$side failed $seed /" >>"$tmp/rows"
}

for k in $(seq 1 "$pairs"); do
	if [ $((k % 2)) -eq 1 ]; then
		run parent "$parent" "$k"
		run change "$change" "$k"
	else
		run change "$change" "$k"
		run parent "$parent" "$k"
	fi
done

echo
echo "$workload, $pairs pairs, parent = $rev"
sort -k2,2 -k1,1 -k4,4g "$tmp/rows" | awk -v spec=BENCHMARK.json -f scripts/bench_summary.awk
