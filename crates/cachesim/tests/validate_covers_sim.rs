//! `Architecture::validate` rejects every description the simulator
//! rejects.
//!
//! Opening a `palo_core::Session` only validates the architecture; it
//! never builds a `Hierarchy` to find out whether one could be built.
//! That is sound only if every description that passes
//! [`Architecture::validate`] also builds a hierarchy under every
//! sharing correction a simulation can ask for. These tests check that
//! implication over every preset and over seeded geometry mutations, and
//! check that each [`SimConfigError`] variant is caught by `validate`.

use palo_arch::{presets, Architecture, CacheLevel};
use palo_cachesim::{Hierarchy, SimConfigError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every preset the repository ships: Table 3, the prefetcher zoo and
/// their scaled-LLC variants.
fn every_preset() -> Vec<Architecture> {
    let mut archs = presets::all();
    archs.extend(presets::zoo());
    archs.extend([
        presets::repro::intel_i7_6700(),
        presets::repro::intel_i7_5930k(),
        presets::repro::arm_cortex_a15(),
        presets::repro::amd_zen2(),
        presets::repro::arm_neoverse_n1(),
        presets::repro::intel_i7_6700_no_prefetch(),
    ]);
    archs
}

/// Asserts `validate() ok ⇒ every (t, c) in 1..=threads_per_core ×
/// 1..=cores builds`; returns whether `arch` validated.
fn check_implication(arch: &Architecture) -> bool {
    if arch.validate().is_err() {
        return false;
    }
    for t in 1..=arch.threads_per_core {
        for c in 1..=arch.cores {
            if let Err(e) = Hierarchy::try_with_effective_sharing(arch, t, c) {
                panic!("validate() accepted {arch:?} but the simulator (t={t}, c={c}) refused: {e}");
            }
        }
    }
    true
}

#[test]
fn every_preset_validates_and_builds_under_every_sharing() {
    let archs = every_preset();
    assert_eq!(archs.len(), 12);
    for arch in &archs {
        assert!(check_implication(arch), "preset {} fails validate()", arch.name);
    }
}

/// A power of two in `[1, 256]`, or one of a few non-powers (0,
/// 48 and others) a quarter of the time.
fn line_size(rng: &mut StdRng) -> usize {
    if rng.gen_range(0..4) == 0 {
        [0, 3, 24, 48, 65, 96, 100][rng.gen_range(0..7usize)]
    } else {
        1 << rng.gen_range(0..=8u32)
    }
}

/// One mutated level built on `base` (prefetcher, sharing, latency kept):
/// the given or a random line size, associativity 0–32, and a size that
/// is a whole number of `ways × line` sets two times in three, arbitrary
/// otherwise.
fn mutate_level(rng: &mut StdRng, base: &CacheLevel, line: Option<usize>) -> CacheLevel {
    let line = line.unwrap_or_else(|| line_size(rng));
    let ways = rng.gen_range(0..=32usize);
    let size = if rng.gen_range(0..3) == 0 {
        rng.gen_range(0..=64 * 1024usize)
    } else {
        rng.gen_range(0..=64usize) * ways * line
    };
    CacheLevel { line_size: line, associativity: ways, size_bytes: size, ..base.clone() }
}

/// A preset with 1–4 mutated levels and random core/thread counts. Half
/// the time the levels share one line size and are sorted by size, so
/// that the outward-growth checks of `validate` pass often enough.
fn mutate(rng: &mut StdRng, presets: &[Architecture]) -> Architecture {
    let mut arch = presets[rng.gen_range(0..presets.len())].clone();
    let bases = arch.caches.clone();
    let shared_line = rng.gen_bool(0.5).then(|| line_size(rng));
    let n = rng.gen_range(1..=4usize);
    arch.caches = (0..n)
        .map(|k| mutate_level(rng, &bases[k.min(bases.len() - 1)], shared_line))
        .collect();
    if shared_line.is_some() {
        arch.caches.sort_by_key(|l| l.size_bytes);
    }
    arch.cores = rng.gen_range(0..=8usize);
    arch.threads_per_core = rng.gen_range(0..=4usize);
    arch
}

#[test]
fn validate_implies_the_simulator_accepts_seeded_mutations() {
    let presets = every_preset();
    let mut accepted = 0;
    let mut rejected_by_sim = [0usize; 3];
    for seed in 0..4000u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let arch = mutate(&mut rng, &presets);
        if check_implication(&arch) {
            accepted += 1;
        }
        match Hierarchy::try_from_architecture(&arch) {
            Err(SimConfigError::TooFewLevels { .. }) => rejected_by_sim[0] += 1,
            Err(SimConfigError::BadLineSize { .. }) => rejected_by_sim[1] += 1,
            Err(SimConfigError::EmptyLevel { .. }) => rejected_by_sim[2] += 1,
            Ok(_) => {}
        }
    }
    // Not vacuous: the mutations reach both sides of the implication and
    // every way the simulator can refuse a description.
    assert!(accepted >= 100, "only {accepted} mutations validated");
    assert!(
        rejected_by_sim.iter().all(|&n| n >= 10),
        "simulator rejections {rejected_by_sim:?}"
    );
}

/// `arch` with one field of one level changed.
fn with_level(
    mut arch: Architecture,
    level: usize,
    f: impl FnOnce(&mut CacheLevel),
) -> Architecture {
    f(&mut arch.caches[level]);
    arch
}

#[test]
fn each_sim_config_error_is_rejected_by_validate() {
    let mut one_level = presets::intel_i7_6700();
    one_level.caches.truncate(1);
    let n1 = presets::arm_neoverse_n1();
    let zen2 = presets::amd_zen2();
    let empty = |level: usize, arch: &Architecture| SimConfigError::EmptyLevel {
        level,
        sets: 0,
        ways: arch.caches[level].associativity,
    };
    let cases = [
        (one_level, SimConfigError::TooFewLevels { found: 1 }),
        (
            with_level(presets::intel_i7_6700(), 0, |l| l.line_size = 48),
            SimConfigError::BadLineSize { line_size: 48 },
        ),
        (
            with_level(presets::arm_cortex_a15(), 0, |l| l.line_size = 0),
            SimConfigError::BadLineSize { line_size: 0 },
        ),
        (
            with_level(presets::intel_i7_6700(), 1, |l| l.associativity = 0),
            SimConfigError::EmptyLevel { level: 1, sets: 0, ways: 0 },
        ),
        (with_level(zen2.clone(), 2, |l| l.size_bytes = 64), empty(2, &zen2)),
        (with_level(n1.clone(), 1, |l| l.line_size = 0), empty(1, &n1)),
    ];
    for (arch, expected) in &cases {
        assert_eq!(Hierarchy::try_from_architecture(arch).err().as_ref(), Some(expected));
        assert!(arch.validate().is_err(), "{}: validate() accepted {expected:?}", arch.name);
    }
}
