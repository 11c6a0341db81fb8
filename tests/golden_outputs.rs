//! Golden-file regression tests for the paper's measured artefacts.
//!
//! `table1`, `table2` and `figure3` print wall-clock measurements —
//! useless as regression anchors — but everything else they report is a
//! pure function of the design and the virtual clock: estimator errors
//! and fees, event counts, captured patterns, RMI call/byte totals,
//! estimation fees and the network time modeled from that traffic. The
//! tests below call the same `vcad_bench::paper` functions the bins
//! print, render those fields into a stable text form, diff them against
//! the files under `tests/golden/`, and assert the paper's shape on them.
//!
//! When an intentional change shifts the canonical numbers, regenerate
//! the files with:
//!
//! ```text
//! VCAD_UPDATE_GOLDEN=1 cargo test --test golden_outputs
//! ```
//!
//! then review the diff like any other code change — the whole point is
//! that drift must be explained in the PR that causes it.

use std::fmt::Write as _;
use std::path::PathBuf;

use vcad_bench::paper::{self, Table2Row, BUFFER_PCTS};
use vcad_bench::report::modeled_network_time;
use vcad_bench::scenarios;
use vcad_core::ShardPolicy;
use vcad_netsim::NetworkModel;
use vcad_obs::Collector;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `rendered` with the stored golden file, or rewrites the
/// file when `VCAD_UPDATE_GOLDEN=1` is set.
fn check_golden(name: &str, rendered: &str) {
    let path = golden_path(name);
    if std::env::var("VCAD_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with \
             VCAD_UPDATE_GOLDEN=1 cargo test --test golden_outputs",
            path.display()
        )
    });
    assert_eq!(
        expected,
        rendered,
        "golden drift in {}: if this change is intentional, regenerate \
         with VCAD_UPDATE_GOLDEN=1 cargo test --test golden_outputs and \
         commit the diff",
        path.display()
    );
}

/// The deterministic slice of one scenario run, one line per field.
fn render_run(run: &scenarios::ScenarioRun) -> String {
    let mut s = String::new();
    writeln!(s, "[{}]", run.scenario.label()).unwrap();
    writeln!(s, "events = {}", run.events).unwrap();
    writeln!(s, "outputs = {}", run.outputs).unwrap();
    writeln!(s, "rmi_calls = {}", run.stats.calls).unwrap();
    writeln!(s, "rmi_bytes_sent = {}", run.stats.bytes_sent).unwrap();
    writeln!(s, "rmi_bytes_received = {}", run.stats.bytes_received).unwrap();
    writeln!(s, "fees_cents = {:.3}", run.fees_cents).unwrap();
    s
}

/// Table 1's three estimator tiers: errors to 0.1 %, fees and remote
/// flags match the golden file, and accuracy improves strictly from the
/// constant tier to the gate-level one on both error columns.
#[test]
fn table1_estimator_tiers_match_golden() {
    let tiers = paper::table1();
    let mut rendered = String::new();
    for tier in &tiers {
        writeln!(rendered, "[{}]", tier.label).unwrap();
        writeln!(rendered, "avg_error_pct = {:.1}", tier.error.avg_pct).unwrap();
        writeln!(rendered, "rms_error_pct = {:.1}", tier.error.rms_pct).unwrap();
        writeln!(rendered, "fee_cents_per_pattern = {}", tier.fee_cents).unwrap();
        writeln!(rendered, "remote = {}", tier.remote).unwrap();
        rendered.push('\n');
    }
    let [constant, regression, toggle] = &tiers[..] else {
        panic!("Table 1 has three tiers, got {}", tiers.len());
    };
    let (c, r, t) = (&constant.error, &regression.error, &toggle.error);
    assert!(
        t.avg_pct < r.avg_pct && r.avg_pct < c.avg_pct,
        "avg error must fall down the tiers: {c:?} / {r:?} / {t:?}"
    );
    assert!(
        t.rms_pct < r.rms_pct && r.rms_pct < c.rms_pct,
        "RMS error must fall down the tiers: {c:?} / {r:?} / {t:?}"
    );
    check_golden("table1.golden", &rendered);
}

/// Table 2's three scenarios at the paper's parameters. The sequential
/// and `--shards 4` schedules must render identically, and both must
/// match the golden file. The network time modeled from the traffic
/// orders local < LAN < WAN for both remote scenarios, and MR > ER on
/// every network.
#[test]
fn table2_deterministic_outputs_match_golden() {
    let obs = Collector::disabled();
    let seq = paper::table2(&obs, None, false, &ShardPolicy::Sequential);
    let sharded = paper::table2(&obs, None, false, &ShardPolicy::Auto(4));
    let mut rendered = String::new();
    for (seq, sharded) in seq.iter().zip(&sharded) {
        let block = render_run(&seq.cold);
        assert_eq!(
            block,
            render_run(&sharded.cold),
            "{}: sharded schedule drifted from sequential",
            seq.cold.scenario.label()
        );
        rendered.push_str(&block);
        rendered.push('\n');
    }
    check_golden("table2.golden", &rendered);

    let [_, er, mr]: &[Table2Row; 3] = seq[..].try_into().expect("three scenarios");
    let network =
        |row: &Table2Row, model: &NetworkModel| modeled_network_time(&row.cold.stats, model);
    let [local, lan, wan] = [
        NetworkModel::local_host(),
        NetworkModel::lan_1999(),
        NetworkModel::wan_1999(),
    ];
    for row in [er, mr] {
        let label = row.cold.scenario.label();
        assert!(
            network(row, &local) < network(row, &lan) && network(row, &lan) < network(row, &wan),
            "{label}: network time must grow local < LAN < WAN"
        );
    }
    for model in [&local, &lan, &wan] {
        assert!(
            network(mr, model) > network(er, model),
            "MR must spend more network time than ER on {}",
            model.name()
        );
    }
}

/// Figure 3's buffer sweep: the RMI call count per buffer size is the
/// figure's deterministic backbone (pinned at five of the thirteen
/// points), and the WAN network time modeled from it carries the shape.
/// It never grows with the buffer, the 100 % point beats the 1 % point,
/// and more than 80 % of the gain has arrived by the 50 % point.
#[test]
fn figure3_buffer_sweep_matches_golden() {
    let points = paper::figure3();
    let mut rendered = String::new();
    for p in points
        .iter()
        .filter(|p| [1, 5, 20, 50, 100].contains(&p.pct))
    {
        writeln!(
            rendered,
            "buffer {}% ({} patterns): rmi_calls = {}, events = {}, \
             fees_cents = {:.3}",
            p.pct, p.buffer, p.run.stats.calls, p.run.events, p.run.fees_cents
        )
        .unwrap();
    }
    check_golden("figure3.golden", &rendered);

    let wan = NetworkModel::wan_1999();
    let network: Vec<f64> = points
        .iter()
        .map(|p| modeled_network_time(&p.run.stats, &wan).as_secs_f64())
        .collect();
    for (pair, pcts) in network.windows(2).zip(BUFFER_PCTS.windows(2)) {
        assert!(
            pair[1] <= pair[0],
            "WAN network time rose from {:.3} s at {}% to {:.3} s at {}%",
            pair[0],
            pcts[0],
            pair[1],
            pcts[1]
        );
    }
    let first = network[0];
    let half = network[BUFFER_PCTS.iter().position(|&p| p == 50).unwrap()];
    let last = network[network.len() - 1];
    assert!(
        last < first,
        "100% buffer {last:.3} s must beat 1% {first:.3} s"
    );
    assert!(
        first - half > 0.8 * (first - last),
        "expected >80% of the gain by the 50% point (by half {:.3} s, total {:.3} s)",
        first - half,
        first - last
    );
}

/// The multi-component shard benchmark's workload itself is pinned too:
/// event count and captured words must not move when the scheduler is
/// reworked, whatever the wall clock does.
#[test]
fn shard_bench_workload_matches_golden() {
    let rig = scenarios::build_multi_component(4, 8, 50, ShardPolicy::Auto(4));
    let run = rig.run();
    let mut rendered = String::new();
    writeln!(rendered, "shards = {}", run.shard_count).unwrap();
    writeln!(rendered, "events = {}", run.events).unwrap();
    for (i, words) in run.words.iter().enumerate() {
        let digest = words
            .iter()
            .fold(0u128, |acc, &w| acc.rotate_left(7) ^ w ^ (i as u128));
        writeln!(
            rendered,
            "out{i}: patterns = {}, digest = {digest:#x}",
            words.len()
        )
        .unwrap();
    }
    check_golden("shard_bench.golden", &rendered);
}

/// The static testability reports of the reference netlists — the same
/// renders `lintgate testability` prints, from the one shared
/// `reference_reports()` source, so the CI binary and this golden file
/// cannot drift apart. SCOAP scores, fault rankings and untestable
/// proofs are pure functions of the netlists.
#[test]
fn testability_reports_match_golden() {
    let mut rendered = String::new();
    for report in vcad_lint::testability::reference_reports() {
        rendered.push_str(&report.render());
        rendered.push('\n');
    }
    check_golden("testability_report.golden", &rendered);
}
