#!/usr/bin/env bash
# Local CI gate: formatting, lints, then the tier-1 verify from ROADMAP.md.
# Run from the repo root. Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, no deps, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> tier-1 verify: cargo build --release"
cargo build --release

echo "==> tier-1 verify: cargo test -q (default-members: the whole workspace)"
cargo test -q

echo "==> fork gate: one TCP server, one call context, one JSON module, one client cache, one table builder, one one-pattern evaluator, one simulation engine, one timing instrument, one wire codec"
if grep -rn "TcpServer" crates src tests examples \
    || grep -rn "thread_local!" crates/rmi \
    || grep -rn "mod json" crates/lint \
    || grep -rn "CachingTransport\|CallCache\|ValueCacheHandle\|connect_cached" crates src tests examples; then
    echo "a removed fork is back (see DESIGN.md, 'One path per job')"; exit 1
fi
# The cache is consulted in one place: the stub.
[ "$(grep -rn "get_or_join(" crates src tests examples | grep -v "^crates/cache/" | cut -d: -f1)" = "crates/rmi/src/client.rs" ] \
    || { echo "Cache::get_or_join is called from Client::invoke, once"; exit 1; }
# One line per escape site: exactly one, in the one JSON module.
[ "$(grep -rnF '\\u{:04x}' crates | cut -d: -f1)" = "crates/obs/src/json.rs" ] \
    || { echo "JSON string escaping belongs in crates/obs/src/json.rs, once"; exit 1; }

# One detection-table algorithm: the compiled transpose. No engine
# selector on the builder or on the provider-side source (the one
# `fn with_engine` left in that file is `VirtualFaultSim`'s).
if grep -rn "build_with(" crates src tests examples \
    || grep -n "EngineKind" crates/faults/src/detect.rs; then
    echo "the detection-table engine fork is back (see DESIGN.md, 'One path per job')"; exit 1
fi
[ "$(grep -c "fn with_engine" crates/faults/src/virtual_sim.rs)" -le 1 ] \
    || { echo "NetlistDetectionSource has no engine selector; tables are built on the compiled plan"; exit 1; }

# One one-pattern evaluator: the plan entry. The naive topo_order() walk
# is test code (crates/netlist/tests/oracle/), and outside test modules
# GateKind::eval is called only by the full-disclosure baseline.
if grep -n "topo_order()" crates/netlist/src/eval.rs; then
    echo "Evaluator runs Netlist::plan(); the scalar walk is the test oracle"; exit 1
fi
scalar_evals="$(for f in $(grep -rlE 'kind(\(\))?\.eval\(' crates/*/src); do
    awk '/^#\[cfg\(test\)\]/ { exit } /kind(\(\))?\.eval\(/ { print FILENAME; exit }' "$f"
done)"
[ "$scalar_evals" = "crates/faults/src/eval.rs" ] \
    || { echo "non-test GateKind::eval call sites: $scalar_evals (only FaultyEvaluator may)"; exit 1; }
# The sweep runs lowered two-operand steps: gate kinds and the per-kind
# tables belong to ExecPlan::compile, not to eval_nets.
if awk '/pub fn eval_nets\(/ { on = 1 } on { print } on && /^    }$/ { exit }' crates/netlist/src/plan.rs \
    | grep -nE 'GateKind::|tables\(\)|\.(pair|step|mux|unary|first|next)\['; then
    echo "eval_nets branches on gate kind or reads the per-kind tables; lower it in compile"; exit 1
fi

# A served table costs its passes plus O(differing faults): rows are
# hashed, not searched; the pattern is splatted, not packed from 64
# copies; and campaign cells count retries without a trace ring.
if grep -n "iter_mut().find(" crates/faults/src/detect.rs \
    || grep -n "pack(&vec!\[" crates/faults/src/parallel.rs \
    || grep -rn "Collector::enabled()" crates/campaign/src; then
    echo "the per-table or per-cell overhead is back (see DESIGN.md, 'Overhead budget')"; exit 1
fi

# One simulation engine: SimEngine runs every run, a sequential run is its
# one-shard case, and the threaded-channel transport is gone.
if grep -rnE "enum SimEngine|SimEngine::Sequential|ShardedScheduler|run_instant_at|ChannelTransport" \
    crates src tests examples; then
    echo "a second simulation engine or the channel transport is back (see DESIGN.md, 'One path per job')"; exit 1
fi

# One timing instrument: benchmark/ measures, crates/bench asserts and
# prints. No committed single-shot timing files, no cargo-bench targets,
# no file writers or sleeping/jittered network paths beside it. (The
# bracketed letters keep this script from matching its own pattern.)
if [ -n "$(git ls-files 'BENCH_*.json')" ] \
    || git grep -n '\[\[bench\]\]' -- '*Cargo.toml' \
    || grep -rnE "merge_bench_[s]ections|micro[b]ench|bench_[p]ath|engine_[b]ench|Shape[r]|Shape[M]ode|one_way_[j]ittered|Fanin[C]one|from_[d]eadline" \
        crates src tests examples; then
    echo "a second timing instrument or a removed dead path is back (see DESIGN.md, 'One path per job')"; exit 1
fi

# One wire codec: frame.rs lays out every tag, the tracked envelope and
# its checksum, wire.rs the integers and the length prefix, value.rs the
# value tree; the dispatcher, mux, retry layer and transports call them,
# and Dispatcher::handle_bytes decodes once instead of recursing.
codec_forks="$(for f in crates/rmi/src/*.rs; do
    case "$f" in */frame.rs | */wire.rs | */value.rs) continue ;; esac
    awk '/^#\[cfg\(test\)\]/ { exit }
         /TAG_|fnv1a64|(to|from)_le_bytes|(en|de)code_tracked/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)"
[ -z "$codec_forks" ] || { echo "$codec_forks"; echo "wire bytes are laid out in frame.rs and wire.rs only"; exit 1; }
if awk '/^impl Dispatcher / { on = 1 } on && /\.handle_bytes\(/ { print; found = 1 } on && /^}/ { on = 0 }
        END { exit !found }' crates/rmi/src/dispatch.rs; then
    echo "Dispatcher::handle_bytes decodes each request once; it does not call itself"; exit 1
fi

echo "==> dead-surface ratchet: crate-only pub items may not grow"
# An item is `pub fn|struct|enum|trait|const|type|static NAME` before a
# crates/<c>/src file's first #[cfg(test)]; it is crate-only when no
# tracked *.rs file outside crates/<c>/ (benchmark/ included) has NAME as
# a word. Lower the ceiling when a PR removes some.
python3 - <<'EOF'
import re, subprocess
CEILING = 283
files = subprocess.run(["git", "ls-files", "*.rs"], capture_output=True, text=True, check=True).stdout.split()
words = {f: set(re.findall(r"\w+", open(f).read())) for f in files}
item = re.compile(r"^\s*pub (?:fn|struct|enum|trait|const|type|static) (\w+)")
count = 0
for crate in sorted({f.split("/")[1] for f in files if f.startswith("crates/")}):
    outside = set().union(*(w for f, w in words.items() if not f.startswith(f"crates/{crate}/")))
    for f in (f for f in files if f.startswith(f"crates/{crate}/src/")):
        for line in open(f):
            if line.startswith("#[cfg(test)]"):
                break
            m = item.match(line)
            count += bool(m) and m.group(1) not in outside
print(f"    {count} crate-only pub items (ceiling {CEILING})")
if count > CEILING:
    raise SystemExit("new crate-only pub surface: make it pub(crate), delete it, or give it a user")
EOF

echo "==> chaos soak: fault-injected session must match the fault-free baseline"
cargo test --release -q --test chaos_session

echo "==> chaos determinism: same seed twice must inject the same fault schedule"
cargo test --release -q --test chaos_session fault_schedule_is_deterministic

echo "==> cached-rerun determinism: warm pass must be bit-identical, wire-free and fee-free"
cargo test --release -q --test cached_rerun

echo "==> cached table2: warm passes wire-free and fee-free, one cache count per lookup"
cargo run --release -q -p vcad-bench --bin table2 -- --cache > /dev/null

echo "==> shard matrix: differential suite must be bit-identical at 1, 2 and 8 shards"
VCAD_SHARDS=1,2,8 cargo test --release -q --test shard_differential

echo "==> shard properties: fixed-seed random designs/partitions (rerun one with VCAD_PROP_SEED=<seed>)"
cargo test --release -q --test shard_property

echo "==> plan property: one-pattern plan evaluation equals the naive scalar oracle on random netlists (rerun one with VCAD_PROP_SEED=<seed>)"
cargo test --release -q -p vcad-netlist --test plan_property

echo "==> vec property: every LogicVec construction path equals a Vec<Logic> model, inline and on the heap (rerun one with VCAD_PROP_SEED=<seed>)"
cargo test --release -q -p vcad-logic --test vec_property

echo "==> golden drift gate: canonical bench outputs must match tests/golden/ (update: VCAD_UPDATE_GOLDEN=1)"
cargo test --release -q --test golden_outputs

echo "==> lint gate: clean two-provider design must pass elaboration"
cargo run --release -q -p vcad-lint --bin lintgate -- clean

echo "==> lint gate: seeded defect fixtures must each trip their rule"
cargo run --release -q -p vcad-lint --bin lintgate -- dirty

echo "==> trace gate: chaos-seeded two-provider session must stitch with zero orphan spans"
cargo run --release -q -p vcad-bench --bin tracesession -- --out target/tracesession
cargo run --release -q -p vcad-obs --bin obs-report -- report \
    target/tracesession/client.json \
    target/tracesession/provider-a.json \
    target/tracesession/provider-b.json \
    --require-no-orphans > target/tracesession/report.txt
grep "^consistency:" target/tracesession/report.txt

echo "==> obs overhead gate: traced run must stay within budget"
cargo run --release -q -p vcad-bench --bin obsbench

echo "==> campaign gate: heavy-chaos sweep, killed mid-run, must resume with zero lost cells"
rm -rf target/campaign-gate
# Reference: one uninterrupted run.
cargo run --release -q -p vcad-bench --bin campaign -- examples/specs/campaign_ci.json \
    --checkpoint target/campaign-gate/clean.journal \
    --json target/campaign-gate/clean-report.json > /dev/null
# Victim: stop after 5 cells (exit 10 = interrupted, by design) ...
cargo run --release -q -p vcad-bench --bin campaign -- examples/specs/campaign_ci.json \
    --checkpoint target/campaign-gate/staged.journal \
    --max-cells 5 > /dev/null && { echo "expected interrupted exit"; exit 1; } || [ $? -eq 10 ]
# ... tear the journal tail as a kill mid-append would ...
python3 - <<'EOF'
import os
p = "target/campaign-gate/staged.journal"
os.truncate(p, os.path.getsize(p) - 3)
EOF
# ... and resume to completion: the report must be byte-identical.
cargo run --release -q -p vcad-bench --bin campaign -- examples/specs/campaign_ci.json \
    --checkpoint target/campaign-gate/staged.journal \
    --json target/campaign-gate/staged-report.json > /dev/null
cmp target/campaign-gate/clean-report.json target/campaign-gate/staged-report.json
echo "    resumed report is byte-identical"

echo "==> engine bench gate: compiled PPSFP must hold a ≥4× margin over the serial event-driven baseline"
cargo run --release -q -p vcad-bench --bin faultscale

echo "==> testability gate: lintgate reports must match the committed golden file"
mkdir -p target/testability-gate
cargo run --release -q -p vcad-lint --bin lintgate -- testability > target/testability-gate/report.txt
cmp target/testability-gate/report.txt tests/golden/testability_report.golden

echo "==> testability gate: campaign --lint must print per-provider reports without running"
cargo run --release -q -p vcad-bench --bin campaign -- examples/specs/campaign_testability.json --lint \
    | grep -q "untestable" || { echo "campaign --lint produced no testability findings"; exit 1; }

echo "==> testability gate: pruned campaign must reproduce unpruned coverage on detectable faults"
rm -f target/testability-gate/*.journal target/testability-gate/*.json
cargo run --release -q -p vcad-bench --bin campaign -- examples/specs/campaign_testability_off.json \
    --checkpoint target/testability-gate/off.journal \
    --json target/testability-gate/off.json > /dev/null
cargo run --release -q -p vcad-bench --bin campaign -- examples/specs/campaign_testability.json \
    --checkpoint target/testability-gate/pruned.journal \
    --json target/testability-gate/pruned.json > /dev/null
python3 - <<'EOF'
import json
off = json.load(open("target/testability-gate/off.json"))["rows"]
pruned = json.load(open("target/testability-gate/pruned.json"))["rows"]
assert len(off) == len(pruned), (len(off), len(pruned))
for a, b in zip(off, pruned):
    assert a["outcome"] == b["outcome"] == "completed", (a, b)
    assert a["detected"] == b["detected"], (a, b)
    assert b["total_faults"] < a["total_faults"], (a, b)
print(f"    {len(off)} cells: detected sets identical, pruned universes strictly smaller")
EOF

echo "==> testability bench gate: pruning must keep coverage bit-identical with a wall-clock win"
cargo run --release -q -p vcad-bench --bin testability

echo "==> loadgen gate: 200 concurrent tenant sessions — zero lost, fees exact, shed within budget"
rm -rf target/loadgen-gate
cargo run --release -q -p vcad-bench --bin loadgen -- --out target/loadgen-gate
cargo run --release -q -p vcad-obs --bin obs-report -- report \
    target/loadgen-gate/client.json \
    target/loadgen-gate/provider.json \
    --require-no-orphans > target/loadgen-gate/report.txt
grep "^consistency:" target/loadgen-gate/report.txt

echo "CI green."
