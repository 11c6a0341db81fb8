#!/usr/bin/env bash
# The repo benchmark's one command.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       One workload in one process; the last line of stdout is the result
#       JSON. This is the form BENCHMARK.json's `command` is run in.
#
#   benchmark/run.sh [--seed <n>] [--scale <f>]
#       The whole suite: every workload untraced (end-to-end metrics), then
#       every workload traced (per-layer metrics,
#       benchmark/out/trace.<workload>.json), each in its own process, at
#       `run_seconds` x scale. Writes benchmark/out/results.json and fails
#       if any output is incorrect or any operation failed. `--scale 0.02`
#       is the smoke mode: every workload and every correctness check in a
#       few seconds.
#
# Builds the benchmark package (release, offline) first. Run from the
# repository root; honours CARGO_TARGET_DIR.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
out="$here/out"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/vcad-benchmark"
mkdir -p "$out"

workload="" seed="1" scale="1" passthrough=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; passthrough+=("$1" "$2"); shift 2 ;;
        --seed) seed="$2"; passthrough+=("$1" "$2"); shift 2 ;;
        --scale) scale="$2"; shift 2 ;;
        --seconds | --trace) passthrough+=("$1" "$2"); shift 2 ;;
        *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
    esac
done

if [ -n "$workload" ]; then
    exec "$bin" "${passthrough[@]}" --out "$out"
fi

# The binary carries BENCHMARK.json: its window, then its workloads.
{ read -r run_seconds; mapfile -t workloads; } < <("$bin" plan)
seconds="$(awk -v s="$run_seconds" -v f="$scale" 'BEGIN { print s * f }')"

results="$out/results.json"
status=0
{
    printf '{"seed": %s, "seconds": %s, "runs": [' "$seed" "$seconds"
    sep=""
    for trace in 0 1; do
        for w in "${workloads[@]}"; do
            log="$out/$w.trace$trace.log"
            if ! "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" \
                --trace "$trace" --out "$out" >"$log"; then
                echo "run.sh: $w (trace $trace) did not finish" >&2
                status=1
                continue
            fi
            sed '$d' "$log" >&2
            line="$(tail -n 1 "$log")"
            case "$line" in
                '{"correct": true, '*'"failed": 0, '*) ;;
                *) echo "run.sh: $w (trace $trace) is incorrect or had failures" >&2; status=1 ;;
            esac
            printf '%s\n{"workload": "%s", "trace": %s, "result": %s}' "$sep" "$w" "$trace" "$line"
            sep=","
        done
    done
    printf '\n]}\n'
} >"$results"
echo "results written to $results" >&2
exit "$status"
