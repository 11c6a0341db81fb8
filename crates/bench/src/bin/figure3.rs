//! Regenerates **Figure 3**: real and CPU time versus pattern buffer
//! size, for the estimator-remote scenario on the WAN.
//!
//! The paper disables the actual PPP computation so that the runtime
//! increase comes from RMI overhead alone; here the provider-side toggle
//! computation is cheap enough that the same effect dominates.
//!
//! Run with `cargo run -p vcad-bench --bin figure3 --release`. The call
//! counts and the modeled network time's shape are asserted by
//! `tests/golden_outputs.rs`; this bin asserts the same shape on real
//! time, which adds the measured CPU time.

use vcad_bench::paper;
use vcad_bench::report::{modeled_real_time, print_table, secs};
use vcad_netsim::NetworkModel;

fn main() {
    let wan = NetworkModel::wan_1999();
    let points = paper::figure3();
    let reals: Vec<f64> = points
        .iter()
        .map(|p| modeled_real_time(p.run.cpu, &p.run.stats, &wan).as_secs_f64())
        .collect();
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{}%", p.pct),
                p.buffer.to_string(),
                p.run.stats.calls.to_string(),
                secs(p.run.cpu),
                secs(modeled_real_time(p.run.cpu, &p.run.stats, &wan)),
            ]
        })
        .collect();

    print_table(
        "Figure 3 — ER scenario on WAN: time vs pattern buffer size (100 patterns)",
        &[
            "Buffer (% of data)",
            "Buffer (patterns)",
            "RMI calls",
            "CPU time (s)",
            "Real time (s)",
        ],
        &rows,
    );
    println!(
        "\nPaper's shape: both curves decrease with buffer size, with \
         diminishing returns beyond ~50% (wall clock ~250 s at tiny buffers \
         down to ~135 s at 100%)."
    );

    // Shape assertions: strictly better at 100% than at 1%, and most of
    // the gain is realised by the 50% point (diminishing returns).
    let first = reals[0];
    let half = reals[paper::BUFFER_PCTS.iter().position(|&p| p == 50).unwrap()];
    let last = reals[reals.len() - 1];
    assert!(last < first, "batched {last} must beat unbatched {first}");
    let total_gain = first - last;
    let gain_by_half = first - half;
    assert!(
        gain_by_half > 0.8 * total_gain,
        "expected >80% of the gain by the 50% buffer point \
         (gain by half {gain_by_half:.3}, total {total_gain:.3})"
    );
    println!("\nAll shape assertions passed.");
}
