#!/usr/bin/env bash
# Checks that the working tree behaves exactly like git revision <rev>.
#
# The simulator is deterministic, so a change that claims "same behaviour"
# must leave every seeded gate's output byte-identical. This script builds
# `experiments` (with `check-invariants`) from a temporary checkout of
# <rev> and from the working tree, runs the `trace`, `chaos`, `shard` and
# `fanout` gates and the paper's figures (`fig3 fig4 fig6 fig7 fig8 fig9
# ablation`) of each in a directory of its own, then compares:
#   - trace_switch.jsonl, trace_failslow.jsonl, BENCH_PR4.json,
#     BENCH_PR5.json and BENCH_PR9.json byte for byte (`cmp`);
#   - BENCH_PR2.json and BENCH_PR3.json with their wall-clock figures
#     masked (scripts/mask-wall-clock.sh);
#   - the eleven printed reports (fanout's masked the same way) and the
#     exit codes (`diff`).
# It names the first difference and exits non-zero, or prints one line and
# exits zero when everything matches.
#
# usage: scripts/same-behaviour.sh <rev>
# Needs no network; the first run builds <rev> from cold (a few minutes).
set -euo pipefail

rev=${1:?usage: scripts/same-behaviour.sh <rev>}
root=$(git rev-parse --show-toplevel)
commit=$(git -C "$root" rev-parse --verify "$rev^{commit}")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/checkout"
git -C "$root" archive "$commit" | tar -x -C "$tmp/checkout"

# build <tree> <target dir>: builds the tree's `experiments` binary.
build() {
    cargo build --quiet --release --offline --manifest-path "$1/Cargo.toml" \
        -p vd-bench --features check-invariants --bin experiments --target-dir "$2"
}

# The seeded experiments compared: four gates, then the paper's figures.
experiments="trace chaos shard fanout fig3 fig4 fig6 fig7 fig8 fig9 ablation"

# run <experiments binary> <output dir>: runs every seeded experiment there.
run() {
    mkdir -p "$2"
    for gate in $experiments; do
        status=0
        (cd "$2" && "$1" "$gate" > "$gate.txt" 2> "$gate.err") || status=$?
        echo "$gate exit $status" >> "$2/exit-codes.txt"
    done
}

echo "same-behaviour: building $rev (${commit:0:12}) and the working tree" >&2
build "$tmp/checkout" "$tmp/checkout-target"
build "$root" "$root/target"
echo "same-behaviour: running $experiments on both" >&2
run "$tmp/checkout-target/release/experiments" "$tmp/base"
run "$root/target/release/experiments" "$tmp/tree"

# fanout's wall-clock figures differ from run to run; compare the rest.
mask="$root/scripts/mask-wall-clock.sh"
for dir in "$tmp/base" "$tmp/tree"; do
    for file in BENCH_PR2.json BENCH_PR3.json fanout.txt; do
        "$mask" "$dir/$file" > "$dir/$file.masked"
        mv -- "$dir/$file.masked" "$dir/$file"
    done
done

for file in trace_switch.jsonl trace_failslow.jsonl BENCH_PR4.json BENCH_PR5.json BENCH_PR9.json \
    BENCH_PR2.json BENCH_PR3.json; do
    if ! cmp -- "$tmp/base/$file" "$tmp/tree/$file" >&2; then
        echo "same-behaviour: $file differs from $rev" >&2
        exit 1
    fi
done
for report in exit-codes $experiments; do
    if ! diff -- "$tmp/base/$report.txt" "$tmp/tree/$report.txt" > "$tmp/diff"; then
        echo "same-behaviour: the $report output differs from $rev; first difference (< $rev, > working tree):" >&2
        head -n 5 "$tmp/diff" >&2
        exit 1
    fi
done
echo "same-behaviour: identical to $rev (7 exported files, 11 reports, exit codes)"
