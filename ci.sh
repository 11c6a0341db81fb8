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

echo "==> fork gate: one TCP server, one call context, one JSON module, one JSON writer, one client cache, one table builder, one one-pattern evaluator, one simulation engine, one timing instrument, one network-time model, one remote-interface declaration, one wire codec"
if grep -rn "TcpServer" crates src tests examples \
    || grep -rn "thread_local!" crates/rmi \
    || grep -rn "CachingTransport\|CallCache\|ValueCacheHandle\|connect_cached\|IpCache" crates src tests examples; then
    echo "a removed fork is back (see DESIGN.md, 'One path per job')"; exit 1
fi
# The cache is consulted in one place: the stub.
[ "$(grep -rn "get_or_join(" crates src tests examples | grep -v "^crates/rmi/src/cache.rs:" | cut -d: -f1)" = "crates/rmi/src/client.rs" ] \
    || { echo "Cache::get_or_join is called from Client::invoke, once"; exit 1; }
# One line per escape site: exactly one, in the one JSON module.
[ "$(grep -rnF '\\u{:04x}' crates | cut -d: -f1)" = "crates/obs/src/json.rs" ] \
    || { echo "JSON string escaping belongs in crates/obs/src/json.rs, once"; exit 1; }
# One JSON writer: documents are JsonValue trees rendered by json::render.
# Only the Chrome trace writer (the trace format is its own layout) and the
# campaign report (its bytes are pinned) format by hand, and so call the
# string escaper themselves. No bin builds a flag name at run time, where
# the entry-point ratchet cannot see it.
hand_writers="$(for f in $(grep -rlE 'json::(quote|write_str)\(' crates/*/src); do
    [ "$f" = crates/obs/src/json.rs ] && continue
    awk '/^#\[cfg\(test\)\]/ { exit } /json::(quote|write_str)\(/ { print FILENAME; exit }' "$f"
done | sort | tr '\n' ' ')"
[ "$hand_writers" = "crates/campaign/src/report.rs crates/obs/src/chrome.rs " ] \
    || { echo "hand-formatted JSON in: $hand_writers(build a JsonValue and call json::render)"; exit 1; }
if grep -nF 'format!("{flag}' crates/*/src/bin/*.rs crates/bench/src/cli.rs; then
    echo "flag names are literals (see DESIGN.md, 'One path per job')"; exit 1
fi

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
# Modeled network time has one realisation: the closed form over a run's
# transport counters. No shaping transport, no accounting timeline.
if grep -rnE "Shaped[T]ransport|Virtual[T]imeline" crates src tests examples; then
    echo "a second network-time model is back (see DESIGN.md, 'One path per job')"; exit 1
fi

# One declaration per remote interface: remote_interfaces! in
# crates/ip/src/protocol.rs generates every stub and skeleton, so no
# provider decodes its own arguments and, outside vcad-rmi, only the
# generated stub calls RemoteRef::invoke*.
if grep -rnF "bad_args(method)" crates/ip/src; then
    echo "a hand-written argument decoder is back (see DESIGN.md, 'One declaration per remote interface')"; exit 1
fi
stub_calls="$(for f in $(grep -rlE '\.invoke(_with_meta|_object)?\(' crates/*/src | grep -v '^crates/rmi/'); do
    awk '/^#\[cfg\(test\)\]/ { exit } /\.invoke(_with_meta|_object)?\(/ { print FILENAME; exit }' "$f"
done)"
[ "$stub_calls" = "crates/ip/src/protocol.rs" ] \
    || { echo "non-test RemoteRef::invoke callers outside vcad-rmi: $stub_calls (call the generated stub)"; exit 1; }

# One wire codec: frame.rs lays out every tag, the tracked envelope and
# its checksum, wire.rs the integers and the length prefix, value.rs the
# value tree; the dispatcher, mux, retry layer and transports call them,
# and Dispatcher::handle_bytes decodes once instead of recursing.
# (hash.rs absorbs integers into the client cache's keys, never onto the
# wire.)
codec_forks="$(for f in crates/rmi/src/*.rs; do
    case "$f" in */frame.rs | */wire.rs | */value.rs | */hash.rs) continue ;; esac
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
CEILING = 206
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

echo "==> knob ratchet: every with_/set_/without_ setting has a production caller"
# A knob is a `pub fn with_*|set_*|without_*` before a crates/<c>/src
# file's first #[cfg(test)]. It is test-only when no production code
# calls it as `.name(` or `::name(`: production is crates/*/src, src/
# and benchmark/src up to each file's first #[cfg(test)], never tests/,
# examples/ or *_tests.rs. A value only tests set is a constant (DESIGN.md,
# "One path per job", lists the survivors); lower the ceiling when a PR
# removes one.
python3 - <<'EOF'
import glob, re
CEILING = 5
def production(path):
    text = []
    for line in open(path):
        if line.startswith("#[cfg(test)]"):
            break
        text.append(line)
    return "".join(text)
files = glob.glob("crates/*/src/**/*.rs", recursive=True) + glob.glob("src/**/*.rs", recursive=True) \
    + glob.glob("benchmark/src/**/*.rs", recursive=True)
prod = {f: production(f) for f in files if not f.endswith("_tests.rs")}
knob = re.compile(r"^\s*pub fn ((?:with|set|without)_\w+)", re.M)
count = 0
for f in sorted(f for f in prod if f.startswith("crates/")):
    for name in knob.findall(prod[f]):
        called = re.compile(rf"(?:\.|::){name}\(")
        if not any(called.search(text) for text in prod.values()):
            count += 1
            print(f"    {f}: {name} (test-only)")
print(f"    {count} test-only knobs (ceiling {CEILING})")
if count > CEILING:
    raise SystemExit("a setting only tests set: make it a constant, or give it a production caller")
EOF

echo "==> dependency-edge ratchet: every workspace [dependencies] edge is used"
# For each crates/<c>/Cargo.toml `vcad-*` entry under [dependencies], the
# crate's non-test src (each file up to its first #[cfg(test)]) must name
# that dependency's crate identifier (`vcad_<name>`). An edge only tests
# use belongs under [dev-dependencies].
python3 - <<'EOF'
import glob, re
unused = []
for toml in sorted(glob.glob("crates/*/Cargo.toml")):
    crate = toml.split("/")[1]
    section = re.search(r"^\[dependencies\]\n(.*?)(?=^\[|\Z)", open(toml).read(), re.M | re.S)
    deps = re.findall(r"^(vcad-[\w-]+)", section.group(1), re.M) if section else []
    src = []
    for path in glob.glob(f"crates/{crate}/src/**/*.rs", recursive=True):
        for line in open(path):
            if line.startswith("#[cfg(test)]"):
                break
            src.append(line)
    src = "".join(src)
    for dep in deps:
        if not re.search(rf"\b{dep.replace('-', '_')}\b", src):
            unused.append(f"{toml}: {dep} is named nowhere in crates/{crate}/src")
print(f"    {len(unused)} unused dependency edges")
if unused:
    raise SystemExit("\n".join(unused) + "\ndrop the edge, or move it to [dev-dependencies]")
EOF

echo "==> entry-point ratchet: every bin, subcommand, example and flag is run by a gate"
# An entry point is a crates/<c>/src/bin/<b>.rs bin or an examples/<e>.rs
# example; its flags are the "--flag" literals on its non-test, non-comment
# lines (the crates/bench/src library is scanned too, so a flag parsed there
# must also be gated) and a bin's subcommands are the string literals its
# main matches the first argument against (`"merge" =>`, `Some("report") =>`).
# Each bin must run here as `--bin <b>`, each flag on a line that runs its
# entry point (or in a file under tests/), and each subcommand as
# `--bin <b> -- <sub>`. Examples run under plain `cargo test` (`test = true`
# in Cargo.toml), so they take no flags.
python3 - <<'EOF'
import glob, re
runs = [l for l in open("ci.sh").read().replace("\\\n", " ").splitlines() if "cargo run" in l]
tests = "".join(open(f).read() for f in glob.glob("tests/*.rs") + glob.glob("crates/*/tests/*.rs"))
tested = set(re.findall(r'\[\[example\]\]\s*name = "(\w+)"\s*test = true', open("Cargo.toml").read()))
def surface(path):
    flags, subcommands = set(), set()
    for line in open(path):
        if line.startswith("#[cfg(test)]"):
            break
        if not line.lstrip().startswith("//"):
            flags.update(re.findall(r'"(--[a-z][a-z0-9-]*)', line))
            subcommands.update(re.findall(r'(?:Some\()?"([a-z][a-z0-9-]*)"\)?\s*=>', line))
    return sorted(flags), sorted(subcommands)
def word(token):
    return rf"(?<![\w-]){token}(?![\w-])"
bins = set(glob.glob("crates/*/src/bin/*.rs"))
scanned = bins | set(glob.glob("crates/bench/src/**/*.rs", recursive=True) + glob.glob("examples/*.rs"))
ungated, pairs, subs = [], 0, 0
for path in sorted(scanned):
    stem = path.rsplit("/", 1)[1][:-3]
    entry = ""
    if path in bins:
        entry = f"--bin {stem}"
        if not any(re.search(word(entry), l) for l in runs):
            ungated.append(f"{path}: no ci.sh step runs {entry}")
    elif path.startswith("examples/") and stem not in tested:
        ungated.append(f"{path}: not declared with `test = true` in Cargo.toml")
    flags, subcommands = surface(path)
    for flag in flags:
        pairs += 1
        gated = any(re.search(word(entry), l) and re.search(word(flag), l) for l in runs) \
            or path in bins and f'"{flag}' in tests
        print(f"    {stem} {flag}" + ("" if gated else "  <- ungated"))
        if not gated:
            ungated.append(f"{path}: {flag} is run by no ci.sh step or test")
    for sub in subcommands:
        subs += 1
        gated = path in bins and any(re.search(word(f"{entry} -- {sub}"), l) for l in runs)
        print(f"    {stem} {sub}" + ("" if gated else "  <- ungated"))
        if not gated:
            ungated.append(f"{path}: subcommand {sub} is run by no ci.sh step")
print(f"    {pairs} flag x entry-point pairs, {subs} subcommands")
if ungated:
    raise SystemExit("\n".join(ungated) + "\ngate each entry point, subcommand and flag, or delete it (see DESIGN.md, 'One path per job')")
EOF

echo "==> chaos soak: fault-injected session must match the fault-free baseline"
cargo test --release -q --test chaos_session

echo "==> chaos determinism: same seed twice must inject the same fault schedule"
cargo test --release -q --test chaos_session fault_schedule_is_deterministic

echo "==> cached-rerun determinism: warm pass must be bit-identical, wire-free and fee-free"
cargo test --release -q --test cached_rerun

echo "==> paper harnesses: table1 and figure3 assert the wall-clock shape, figure4 prints the walk-through"
cargo run --release -q -p vcad-bench --bin table1 > /dev/null
cargo run --release -q -p vcad-bench --bin figure3 > /dev/null
cargo run --release -q -p vcad-bench --bin figure4 > /dev/null

echo "==> cached table2: warm passes wire-free and fee-free, one cache count per lookup"
cargo run --release -q -p vcad-bench --bin table2 -- --cache > /dev/null

echo "==> chaos-seeded cached table2: warm = cold over a faulty link"
cargo run --release -q -p vcad-bench --bin table2 -- --cache --chaos-seed 7 > /dev/null

echo "==> sharded table2: CPU shape, shard-invariant table, multi-component shard bench"
cargo run --release -q -p vcad-bench --bin table2 -- --shards 2 > /dev/null

echo "==> traced table2: the trace must stitch with zero orphan spans"
mkdir -p target/table2
cargo run --release -q -p vcad-bench --bin table2 -- --trace target/table2/trace.json > /dev/null
cargo run --release -q -p vcad-obs --bin obs-report -- report target/table2/trace.json \
    --require-no-orphans > target/table2/report.txt
grep "^consistency:" target/table2/report.txt

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

echo "==> trace gate: chaos-seeded two-provider session must stitch with zero orphan spans"
cargo run --release -q -p vcad-bench --bin tracesession -- --out target/tracesession
cargo run --release -q -p vcad-obs --bin obs-report -- report \
    target/tracesession/client.json \
    target/tracesession/provider-a.json \
    target/tracesession/provider-b.json \
    --require-no-orphans > target/tracesession/report.txt
grep "^consistency:" target/tracesession/report.txt

echo "==> merge gate: the merged dump must stitch to the same lanes and spans with zero orphan spans"
cargo run --release -q -p vcad-obs --bin obs-report -- merge \
    target/tracesession/client.json \
    target/tracesession/provider-a.json \
    target/tracesession/provider-b.json \
    --out target/tracesession/merged.json > /dev/null
cargo run --release -q -p vcad-obs --bin obs-report -- report target/tracesession/merged.json \
    --require-no-orphans > target/tracesession/merged-report.txt
counts() { grep -o "^lanes: [0-9]* *spans: [0-9]*" "$1"; }
[ "$(counts target/tracesession/merged-report.txt)" = "$(counts target/tracesession/report.txt)" ] \
    || { echo "merged dump: $(counts target/tracesession/merged-report.txt); three dumps: $(counts target/tracesession/report.txt)"; exit 1; }
counts target/tracesession/merged-report.txt
grep "^consistency:" target/tracesession/merged-report.txt

echo "==> obs overhead gate: traced run must stay within budget"
cargo run --release -q -p vcad-bench --bin obsbench

echo "==> campaign gate: heavy-chaos sweep, killed mid-run, must resume with zero lost cells"
rm -rf target/campaign-gate
# Reference: one uninterrupted run.
cargo run --release -q -p vcad-bench --bin campaign -- examples/specs/campaign_ci.json \
    --checkpoint target/campaign-gate/clean.journal \
    --json target/campaign-gate/clean-report.json > /dev/null
# Victim: one worker, stop after 5 cells (exit 10 = interrupted, by design) ...
cargo run --release -q -p vcad-bench --bin campaign -- examples/specs/campaign_ci.json \
    --checkpoint target/campaign-gate/staged.journal --workers 1 \
    --max-cells 5 > /dev/null && { echo "expected interrupted exit"; exit 1; } || [ $? -eq 10 ]
# ... tear the journal tail as a kill mid-append would ...
python3 - <<'EOF'
import os
p = "target/campaign-gate/staged.journal"
os.truncate(p, os.path.getsize(p) - 3)
EOF
# ... and resume to completion on three workers: the report must be
# byte-identical whatever the pool size.
cargo run --release -q -p vcad-bench --bin campaign -- examples/specs/campaign_ci.json \
    --checkpoint target/campaign-gate/staged.journal --workers 3 \
    --json target/campaign-gate/staged-report.json > /dev/null
cmp target/campaign-gate/clean-report.json target/campaign-gate/staged-report.json
echo "    resumed report is byte-identical"

echo "==> engine bench gate: compiled PPSFP must hold a ≥4× margin over the serial event-driven baseline"
cargo run --release -q -p vcad-bench --bin faultscale

echo "==> testability gate: campaign --lint must print per-provider reports without running"
cargo run --release -q -p vcad-bench --bin campaign -- examples/specs/campaign_testability.json --lint \
    | grep -q "untestable" || { echo "campaign --lint produced no testability findings"; exit 1; }

echo "==> testability gate: pruned campaign must reproduce unpruned coverage on detectable faults"
mkdir -p target/testability-gate
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
cargo run --release -q -p vcad-bench --bin loadgen -- --out target/loadgen-gate \
    --health target/loadgen-gate/health.json
cargo run --release -q -p vcad-obs --bin obs-report -- report \
    target/loadgen-gate/client.json \
    target/loadgen-gate/provider.json \
    --require-no-orphans > target/loadgen-gate/report.txt
grep "^consistency:" target/loadgen-gate/report.txt
# The final health snapshot bills each tenant its 50 sessions x 3 calls x
# 0.001 cents and shows every session closed.
python3 - <<'EOF'
import json
tenants = json.load(open("target/loadgen-gate/health.json"))["tenants"]
assert sorted(tenants) == [f"tenant-{t}" for t in range(4)], sorted(tenants)
for name, t in sorted(tenants.items()):
    assert abs(t["fees_cents"] - 0.15) < 1e-9, (name, t)
    assert t["sessions"] == 0, (name, t)
print(f"    health: {len(tenants)} tenants billed 0.15 cents each, no open sessions")
EOF

echo "CI green."
