//! The detection tables a provider actually serves — `ProviderServer`
//! over `InProcTransport`, through `RemoteComponent::detection_source()`
//! — against the serial oracle. Remote-equals-local tests compare two
//! runs of the same builder and would pass if both were wrong; this one
//! recomputes every table with one scalar `FaultyEvaluator` pass per
//! fault class.

use vcad::campaign::spec::registered_offering;
use vcad::faults::{DetectionTableSource, FaultUniverse};
use vcad::ip::{ClientSession, ProviderServer};
use vcad::logic::LogicVec;
use vcad_prng::Rng;

#[path = "../crates/faults/tests/oracle/mod.rs"]
mod oracle;

/// Every name `registered_offering` resolves.
const OFFERINGS: [&str; 4] = [
    "MultFastLowPower",
    "MultBaselineArray",
    "AdderRipple",
    "UntestableDemo",
];

#[test]
fn served_tables_equal_the_serial_oracle() {
    let mut rng = Rng::seed_from_u64(0x7ab1e);
    for name in OFFERINGS {
        let offering = registered_offering(name).unwrap();
        let server = ProviderServer::new("tables.example.com");
        server.offer(offering.clone());
        let session = ClientSession::connect_in_process(&server).unwrap();
        for width in [2usize, 3] {
            let netlist = offering.instantiate(width);
            let universe = FaultUniverse::collapsed(&netlist);
            let source = session.instantiate(name, width).unwrap().detection_source();
            let w = netlist.input_count();
            let patterns: Vec<LogicVec> = (0..8)
                .map(|_| LogicVec::from_u64(w, rng.next_u64() & ((1 << w) - 1)))
                .chain(oracle::four_valued_corners(w))
                .collect();
            for inputs in &patterns {
                let served = source.detection_table(inputs).unwrap();
                assert_eq!(served.inputs(), inputs);
                oracle::assert_matches_serial_oracle(
                    &served,
                    &netlist,
                    &universe,
                    &format!("{name}/{width}"),
                );
            }
        }
    }
}
