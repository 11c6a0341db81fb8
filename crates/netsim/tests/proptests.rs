//! Randomized property tests of the network models,
//! driven by deterministic seeded sampling (the workspace builds offline,
//! with no external property-testing framework).

use std::time::Duration;

use vcad_netsim::NetworkModel;
use vcad_prng::Rng;

const CASES: usize = 500;

fn arb_model(rng: &mut Rng) -> NetworkModel {
    let lat_us = rng.gen_range(0u64..200_000);
    let bw = rng.gen_range(1e3f64..1e9);
    let overhead = rng.gen_range(0usize..2048);
    NetworkModel::new("arb", Duration::from_micros(lat_us), bw, overhead)
}

#[test]
fn one_way_is_monotone_in_payload() {
    let mut rng = Rng::seed_from_u64(0x0e71);
    for _ in 0..CASES {
        let model = arb_model(&mut rng);
        let a = rng.gen_range(0usize..1_000_000);
        let b = rng.gen_range(0usize..1_000_000);
        let (small, large) = (a.min(b), a.max(b));
        assert!(model.one_way(small) <= model.one_way(large));
        assert!(model.one_way(small) >= model.latency());
    }
}

#[test]
fn round_trip_decomposes() {
    let mut rng = Rng::seed_from_u64(0x0e72);
    for _ in 0..CASES {
        let model = arb_model(&mut rng);
        let req = rng.gen_range(0usize..100_000);
        let resp = rng.gen_range(0usize..100_000);
        assert_eq!(
            model.round_trip(req, resp),
            model.one_way(req) + model.one_way(resp)
        );
    }
}

#[test]
fn batching_never_loses() {
    let mut rng = Rng::seed_from_u64(0x0e73);
    for _ in 0..CASES {
        let model = arb_model(&mut rng);
        let chunk = rng.gen_range(1usize..10_000);
        let n = rng.gen_range(2usize..50);
        // One message of n*chunk bytes is never slower than n messages of
        // chunk bytes: the economic basis of pattern buffering (Figure 3).
        let batched = model.one_way(chunk * n);
        let split: Duration = (0..n).map(|_| model.one_way(chunk)).sum();
        assert!(batched <= split);
    }
}
