//! The paper's Figure 2 circuit: two stimulus sources, two registers, a
//! multiplier and a primary output. `mr_tcp` instantiates it once around
//! a remote multiplier; `al_gates` eight times around gate-level ones.

use std::collections::BTreeMap;
use std::sync::Arc;

use vcad_core::stdlib::{CaptureState, PrimaryOutput, Register, VectorInput};
use vcad_core::{DesignBuilder, Module, ModuleId, SimRun};

use crate::harness::to_vecs;

/// Adds pipeline `k` (`INA{k}`/`INB{k}` → `REGA{k}`/`REGB{k}` → `mult` →
/// `OUT{k}`) and returns its output module. The stimulus is the
/// benchmark's own pattern list, replayed one pattern per tick.
pub fn add_pipeline(
    b: &mut DesignBuilder,
    k: usize,
    width: usize,
    a: &[u64],
    bb: &[u64],
    mult: Arc<dyn Module>,
) -> ModuleId {
    let ina = b.add_module(Arc::new(VectorInput::new(
        format!("INA{k}"),
        to_vecs(a, width),
    )));
    let inb = b.add_module(Arc::new(VectorInput::new(
        format!("INB{k}"),
        to_vecs(bb, width),
    )));
    let rega = b.add_module(Arc::new(Register::new(format!("REGA{k}"), width)));
    let regb = b.add_module(Arc::new(Register::new(format!("REGB{k}"), width)));
    let mult = b.add_module(mult);
    let out = b.add_module(Arc::new(PrimaryOutput::new(format!("OUT{k}"), 2 * width)));
    b.connect(ina, "out", rega, "d").expect("wire INA");
    b.connect(inb, "out", regb, "d").expect("wire INB");
    b.connect(rega, "q", mult, "a").expect("wire REGA");
    b.connect(regb, "q", mult, "b").expect("wire REGB");
    b.connect(mult, "p", out, "in").expect("wire OUT");
    out
}

/// Checks that the word settled on `out` one tick after pattern `i` was
/// applied equals `a[i] · b[i]`, for every pattern.
///
/// Both operands change in the same instant, so the multiplier may emit
/// an intermediate product first; only the last value of each instant
/// counts. A product equal to its predecessor emits nothing and the
/// previous word stands.
pub fn check_products(run: &SimRun, out: ModuleId, a: &[u64], b: &[u64]) -> Result<(), String> {
    let capture = run
        .module_state::<CaptureState>(out)
        .ok_or("output captured nothing")?;
    let mut settled: BTreeMap<u64, Option<u128>> = BTreeMap::new();
    for (time, value) in capture.history() {
        settled.insert(time.ticks(), value.to_word().map(|w| w.value()));
    }
    let mut current = None;
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        if let Some(&word) = settled.get(&(i as u64 + 1)) {
            current = word;
        }
        let expected = u128::from(x) * u128::from(y);
        if current != Some(expected) {
            return Err(format!(
                "pattern {i}: {x} x {y} settled as {current:?}, expected {expected}"
            ));
        }
    }
    Ok(())
}
