//! Property test: every way of building a `LogicVec` agrees bit for bit
//! with a plain `Vec<Logic>` model, and vectors holding the same bits are
//! `==` and hash equal whichever path built them — across the inline
//! (≤ 64 bits) and heap representations and the limb boundaries between
//! them.
//!
//! Failures print the seed that produced them; rerun just that seed
//! with `VCAD_PROP_SEED=<seed> cargo test -p vcad-logic --test
//! vec_property`.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use vcad_logic::{Logic, LogicVec};
use vcad_prng::Rng;

const SEEDS: [u64; 6] = [1, 2, 3, 5, 8, 1999];
const WIDTHS: [usize; 11] = [0, 1, 2, 31, 63, 64, 65, 127, 128, 129, 200];

fn seeds_under_test() -> Vec<u64> {
    match std::env::var("VCAD_PROP_SEED") {
        Ok(s) => vec![s.parse().expect("VCAD_PROP_SEED: bad seed")],
        Err(_) => SEEDS.to_vec(),
    }
}

fn random_model(rng: &mut Rng, width: usize) -> Vec<Logic> {
    (0..width)
        .map(|_| Logic::ALL[rng.gen_range(0..4usize)])
        .collect()
}

fn hash_of(v: &LogicVec) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// `v` holds exactly `model`, and is `==` and hash equal to the
/// `from_bits` reference of it.
fn assert_models(v: &LogicVec, model: &[Logic], path: &str, context: &str) {
    let context = format!("{path}: {context}");
    assert_eq!(v.width(), model.len(), "width, {context}");
    for (i, &bit) in model.iter().enumerate() {
        assert_eq!(v.get(i), bit, "bit {i}, {context}");
    }
    assert_eq!(v.iter().collect::<Vec<_>>(), model, "iter, {context}");
    assert_eq!(
        v.is_binary(),
        model.iter().all(|b| b.is_binary()),
        "is_binary, {context}"
    );
    let reference = LogicVec::from_bits(model.iter().copied());
    assert_eq!(*v, reference, "eq, {context}");
    assert_eq!(hash_of(v), hash_of(&reference), "hash, {context}");
}

/// `zeros` then `set`, every bit first overwritten with a random value
/// so a stale bit would show.
fn by_set(rng: &mut Rng, model: &[Logic]) -> LogicVec {
    let mut v = LogicVec::zeros(model.len());
    for i in 0..model.len() {
        v.set(i, Logic::ALL[rng.gen_range(0..4usize)]);
    }
    for (i, &bit) in model.iter().enumerate().rev() {
        v.set(i, bit);
    }
    v
}

fn by_parse(model: &[Logic]) -> LogicVec {
    let text: String = model.iter().rev().map(|b| b.to_char()).collect();
    text.parse().expect("model text parses")
}

#[test]
fn every_construction_path_agrees_with_the_model() {
    for seed in seeds_under_test() {
        let mut rng = Rng::seed_from_u64(seed);
        for width in WIDTHS {
            let context = format!("seed {seed} width {width} (rerun with VCAD_PROP_SEED={seed})");
            let model = random_model(&mut rng, width);
            assert_models(
                &LogicVec::from_bits(model.iter().copied()),
                &model,
                "from_bits",
                &context,
            );
            assert_models(&by_set(&mut rng, &model), &model, "zeros + set", &context);
            assert_models(&by_parse(&model), &model, "FromStr", &context);
            assert_models(
                &model.iter().copied().collect(),
                &model,
                "collect",
                &context,
            );

            let bits = rng.next_u64();
            let binary: Vec<Logic> = (0..width)
                .map(|i| Logic::from(i < 64 && bits >> i & 1 == 1))
                .collect();
            assert_models(
                &LogicVec::from_u64(width, bits),
                &binary,
                "from_u64",
                &context,
            );
            for fill in Logic::ALL {
                assert_models(
                    &LogicVec::filled(width, fill),
                    &vec![fill; width],
                    "filled",
                    &context,
                );
            }
        }
    }
}

#[test]
fn slices_at_every_offset_agree_with_the_model() {
    for seed in seeds_under_test() {
        let mut rng = Rng::seed_from_u64(seed);
        for width in WIDTHS {
            let model = random_model(&mut rng, width);
            let v = LogicVec::from_bits(model.iter().copied());
            for lsb in 0..=width {
                let rest = width - lsb;
                for len in [0, rest, rng.gen_range(0..=rest)] {
                    let context = format!(
                        "seed {seed} width {width} slice({lsb}, {len}) \
                         (rerun with VCAD_PROP_SEED={seed})"
                    );
                    assert_models(
                        &v.slice(lsb, len),
                        &model[lsb..lsb + len],
                        "slice",
                        &context,
                    );
                }
            }
        }
    }
}

#[test]
fn concatenated_random_splits_rebuild_the_vector() {
    for seed in seeds_under_test() {
        let mut rng = Rng::seed_from_u64(seed);
        for width in WIDTHS {
            for round in 0..8 {
                let context = format!(
                    "seed {seed} width {width} round {round} \
                     (rerun with VCAD_PROP_SEED={seed})"
                );
                let model = random_model(&mut rng, width);
                let mut cuts: Vec<usize> = (0..rng.gen_range(0..5usize))
                    .map(|_| rng.gen_range(0..=width))
                    .collect();
                cuts.extend([0, width]);
                cuts.sort_unstable();
                // Each piece is built along a different path, so the
                // concatenation mixes inline and heap parts.
                let whole =
                    cuts.windows(2)
                        .enumerate()
                        .fold(LogicVec::default(), |acc, (i, cut)| {
                            let part = &model[cut[0]..cut[1]];
                            let piece = match i % 3 {
                                0 => LogicVec::from_bits(part.iter().copied()),
                                1 => by_parse(part),
                                _ => by_set(&mut rng, part),
                            };
                            acc.concat(&piece)
                        });
                assert_models(&whole, &model, "concat", &context);
            }
        }
    }
}
