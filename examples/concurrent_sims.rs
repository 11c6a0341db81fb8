//! Concurrent simulations over one shared design.
//!
//! JavaCAD's schedulers keep all per-component state in scheduler-owned
//! lookup tables, so many simulations of the same design can run on
//! concurrent threads without any interference and without save/restore.
//! This example runs the Figure 2-style circuit under several setups at
//! once and shows the runs are bit-identical to serial execution.
//!
//! Run with `cargo run --example concurrent_sims`. A final sharded pass
//! (`ShardPolicy::Auto(2)`) is checked against the serial reference bit
//! for bit — sharding *within* a run composes with concurrency *across*
//! runs, because both keep all mutable state in scheduler-owned tables.

use std::error::Error;
use std::sync::Arc;
use std::time::Instant;

use vcad::core::stdlib::{CaptureState, PrimaryOutput, RandomInput, Register, WordMultiplier};
use vcad::core::{DesignBuilder, ShardPolicy, SimulationController};

fn main() -> Result<(), Box<dyn Error>> {
    let width = 16;
    let patterns = 2_000;

    let mut b = DesignBuilder::new("concurrent");
    let ina = b.add_module(Arc::new(RandomInput::new("INA", width, 1, patterns)));
    let inb = b.add_module(Arc::new(RandomInput::new("INB", width, 2, patterns)));
    let rega = b.add_module(Arc::new(Register::new("REGA", width)));
    let regb = b.add_module(Arc::new(Register::new("REGB", width)));
    let mult = b.add_module(Arc::new(WordMultiplier::new("MULT", width)));
    let out = b.add_module(Arc::new(PrimaryOutput::new("OUT", 2 * width)));
    b.connect(ina, "out", rega, "d")?;
    b.connect(inb, "out", regb, "d")?;
    b.connect(rega, "q", mult, "a")?;
    b.connect(regb, "q", mult, "b")?;
    b.connect(mult, "p", out, "in")?;
    let design = Arc::new(b.build()?);

    let controller = SimulationController::new(Arc::clone(&design));

    // Serial reference.
    let start = Instant::now();
    let reference = controller.run()?;
    let serial_time = start.elapsed();
    let reference_words = reference
        .module_state::<CaptureState>(out)
        .expect("capture")
        .words();

    // Eight schedulers over the very same design object, concurrently.
    let n = 8;
    let start = Instant::now();
    let runs = controller.run_concurrent(n)?;
    let concurrent_time = start.elapsed();

    for (i, run) in runs.iter().enumerate() {
        let words = run
            .module_state::<CaptureState>(out)
            .expect("capture")
            .words();
        assert_eq!(words, reference_words, "scheduler {i} diverged");
    }
    println!(
        "{n} concurrent schedulers over one design: all {} outputs identical \
         to the serial run (no interference, no save/restore)",
        reference_words.len()
    );
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1);
    println!(
        "serial {serial_time:?}; {n} concurrent runs in {concurrent_time:?} \
         ({:.1}× the serial time for {n}× the work on {cores} core(s))",
        concurrent_time.as_secs_f64() / serial_time.as_secs_f64()
    );

    // One sharded pass: the event loop itself is split over worker
    // threads at connectivity-component boundaries, and the result must
    // still match the serial reference bit for bit. (This circuit is a
    // single component, so the engine reports one shard; the `table2`
    // bench's multi-component design shows the scaling.)
    let sharded = controller.with_shards(ShardPolicy::Auto(2)).run()?;
    let words = sharded
        .module_state::<CaptureState>(out)
        .expect("capture")
        .words();
    assert_eq!(words, reference_words, "sharded run diverged");
    println!(
        "sharded pass (requested 2, used {} shard(s)): outputs identical \
         to the serial reference",
        sharded.shard_count()
    );
    Ok(())
}
