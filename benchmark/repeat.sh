#!/usr/bin/env bash
# Runs the whole suite for two sets, prints the sets side by side and
# fails unless they agree by the benchmark's own rules: every end-to-end
# metric within its bound, every exact per-layer count identical in every
# run, nothing incorrect, nothing failed.
#
#   benchmark/repeat.sh [--seed <n>] [--scale <f>]      (as run.sh takes them)
#
# A set is three runs of the suite, each metric the median of its three
# values, and the two sets' runs alternate. One run per set was tried and
# is not a usable check on this sandbox: twice out of twice, on unchanged
# code, one of its 35 timing pairs landed on a host slow spell (a 10 s
# window's p75 off by 31 %, a set-up time by 30 %). The judging rule stays
# as strict as the bounds in BENCHMARK.json; an end-to-end timing that
# does not repeat is fixed by measuring it over more work, never by
# widening its bound.
#
# When the sets agree their median is written to benchmark/out/baseline.json
# with the toolchain and core count; benchmark/baseline.json is a copy of
# the first one. Takes about a quarter of an hour.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
out="$here/out"
mkdir -p "$out"
rm -f "$out"/results.*.json

for round in 1 2 3; do
    for set in first second; do
        echo "== $set set, run $round of 3" >&2
        "$here/run.sh" "$@" 2>"$out/suite.$set.$round.log" || {
            tail -n 20 "$out/suite.$set.$round.log" >&2
            echo "repeat.sh: run $round of the $set set failed" >&2
            exit 1
        }
        mv "$out/results.json" "$out/results.$set.$round.json"
    done
done

target="${CARGO_TARGET_DIR:-$here/target}"
"$target/release/vcad-benchmark" compare "$out/baseline.json" "$(rustc -V)" \
    "$out"/results.first.*.json "$out"/results.second.*.json
