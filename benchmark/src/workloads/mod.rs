//! The workloads. Each is one module with a `run(&Args) -> Outcome`.

mod al_gates;
mod campaign_chaos;
mod mr_tcp;
mod serve_mt;
mod vfs_tcp;

use crate::harness::{Args, Outcome};

/// Runs the workload `args` names; `None` if there is no such workload.
pub fn run(args: &Args) -> Option<Outcome> {
    Some(match args.workload.as_str() {
        "mr_tcp" => mr_tcp::run(args),
        "al_gates" => al_gates::run(args),
        "vfs_tcp" => vfs_tcp::run(args),
        "serve_mt_r1000" => serve_mt::run(args, serve_mt::Phase::Open { calls_per_s: 1000 }),
        "serve_mt_r2000" => serve_mt::run(args, serve_mt::Phase::Open { calls_per_s: 2000 }),
        "serve_mt_sat" => serve_mt::run(args, serve_mt::Phase::Saturate),
        "campaign_chaos" => campaign_chaos::run(args),
        _ => return None,
    })
}
