//! Benchmark harnesses regenerating the paper's tables and figures.
//!
//! Each table/figure has a binary that prints the reproduced rows next to
//! the paper's published values (shape comparison — see `EXPERIMENTS.md`):
//!
//! * `table1` — the three power-estimator tiers (accuracy / cost / CPU);
//! * `table2` — AL / ER / MR scenarios × {local host, LAN, WAN};
//! * `figure3` — real & CPU time vs pattern buffer size (ER on WAN);
//! * `figure4` — the half-adder detection-table walk-through;
//! * `faultscale` — virtual vs flat fault simulation scaling (ablation).
//!
//! Every bin prints its tables and counters to stdout and asserts its
//! shape relations and CI gates; none writes a timing file. Repeated,
//! spread-reporting timing is the `benchmark/` package's job.
//!
//! The library half hosts the shared machinery: the paper's measured
//! artefacts as functions ([`paper`]), which the bins print and
//! `tests/golden_outputs.rs` asserts; the Figure 2 circuit in its three
//! deployment flavours ([`scenarios`]); network-time accounting
//! ([`report`]) and workload generation ([`workload`]).

pub mod cli;
pub mod paper;
pub mod report;
pub mod scenarios;
pub mod workload;
