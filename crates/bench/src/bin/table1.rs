//! Regenerates **Table 1**: three estimators for the power consumption of
//! the multiplier `MULT` — average error, RMS error, cost per pattern and
//! CPU time per pattern.
//!
//! Run with `cargo run -p vcad-bench --bin table1 --release`. The errors,
//! fees and remote flags are pinned by `tests/golden_outputs.rs`; this
//! bin adds the measured CPU column and asserts it grows down the tiers.

use vcad_bench::paper;
use vcad_bench::report::print_table;

fn main() {
    let tiers = paper::table1();
    let rows: Vec<Vec<String>> = tiers
        .iter()
        .map(|t| {
            vec![
                t.label.to_owned(),
                format!("{:.1}", t.error.avg_pct),
                format!("{:.1}", t.error.rms_pct),
                format!("{}", t.fee_cents),
                format!(
                    "{:.2} µs{}",
                    t.cpu_per_pattern.as_secs_f64() * 1e6,
                    if t.remote { " (+ network*)" } else { "" }
                ),
            ]
        })
        .collect();
    print_table(
        "Table 1 — power estimators for MULT (16×16 Wallace multiplier, 640 mixed-activity patterns)",
        &[
            "Estimator type",
            "Avg error (%)",
            "RMS error (%)",
            "Cost/pattern (¢)",
            "CPU time/pattern",
        ],
        &rows,
    );
    println!(
        "\n* the remote flag marks the estimator that must run on the provider's \
         server; network time is unpredictable (paper's footnote).\n"
    );
    println!(
        "Paper's published values (avg / rms / cost / cpu): constant 25/90/0/0, \
         linear regression 20/50/0/1, gate-level toggle count 10/20/0.1/100."
    );

    // The paper's CPU column: the gate-level tier costs far more per
    // pattern than the two characterised models.
    let toggle = &tiers[2];
    for cheap in &tiers[..2] {
        assert!(
            toggle.cpu_per_pattern > cheap.cpu_per_pattern,
            "{} ({:?}) must cost more CPU than {} ({:?})",
            toggle.label,
            toggle.cpu_per_pattern,
            cheap.label,
            cheap.cpu_per_pattern
        );
    }
    println!("\nAll shape assertions passed.");
}
