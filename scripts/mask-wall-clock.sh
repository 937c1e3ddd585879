#!/usr/bin/env bash
# Prints one of the `fanout` experiment's outputs (BENCH_PR2.json,
# BENCH_PR3.json or its printed report) with the wall-clock figures
# replaced by `#`, so the deterministic rest of two runs can be compared
# byte for byte. The masked figures are the fan-out throughput
# (`fanout_throughput_frames_per_sec`, the `throughput_frames_per_sec`
# pair), `trace_overhead_percent` and the report's "fan-out throughput"
# line; every other figure comes from the seeded simulator or from
# allocation counts.
#
# usage: scripts/mask-wall-clock.sh <file>
set -euo pipefail

sed -E \
    -e 's/("(fanout_throughput_frames_per_sec|trace_overhead_percent)": )-?[0-9.]+/\1#/' \
    -e '/"throughput_frames_per_sec": \{/,/\}/ s/-?[0-9]+(\.[0-9]+)?/#/' \
    -e 's/^fan-out throughput: .*/fan-out throughput: #/' \
    -- "${1:?usage: scripts/mask-wall-clock.sh <file>}"
