//! Order-independence of stats merging, and the exact cost accounting
//! of the checksum guard.
//!
//! The parallel engine folds worker-local [`ExecutionStats`] blocks (and
//! the [`GuardStats`] block nested inside) in whatever order its workers
//! finish. Thread-count determinism therefore *requires* the merge to be
//! commutative and associative — saturating adds and max both are, while
//! a wrapping or panicking add stops being associative the moment
//! saturation enters the picture. These properties are pinned across the
//! full `u64` range, including values that force saturation.

use membit_encoding::{BitEncoder, Thermometer};
use membit_tensor::{Rng, RngStream, Tensor};
use membit_xbar::{
    CrossbarLinear, ExecOptions, ExecutionStats, GuardPolicy, GuardStats, XbarConfig,
};
use proptest::prelude::*;

/// Builds a stats block from 17 raw counters (8 base + 9 guard).
/// Full-range `u64` inputs make saturation a common case, not a corner.
fn stats_from(raw: &[u64]) -> ExecutionStats {
    ExecutionStats {
        vectors: raw[0],
        pulses: raw[1],
        tile_mvms: raw[2],
        adc_conversions: raw[3],
        cell_reads: raw[4],
        unrecoverable_cells: raw[5],
        degraded_tiles: raw[6],
        refreshes: raw[7],
        guard: GuardStats {
            checks: raw[8],
            violations: raw[9],
            retries: raw[10],
            retry_successes: raw[11],
            tile_refreshes: raw[12],
            tile_remaps: raw[13],
            fallbacks: raw[14],
            saf_corrections: raw[15],
            degraded_layers: raw[16],
        },
    }
}

fn merged(a: &ExecutionStats, b: &ExecutionStats) -> ExecutionStats {
    let mut out = *a;
    out.merge(b);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn merge_is_commutative(
        ra in proptest::collection::vec(0u64..=u64::MAX, 17..=17),
        rb in proptest::collection::vec(0u64..=u64::MAX, 17..=17),
    ) {
        let (a, b) = (stats_from(&ra), stats_from(&rb));
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    #[test]
    fn merge_is_associative(
        ra in proptest::collection::vec(0u64..=u64::MAX, 17..=17),
        rb in proptest::collection::vec(0u64..=u64::MAX, 17..=17),
        rc in proptest::collection::vec(0u64..=u64::MAX, 17..=17),
    ) {
        let (a, b, c) = (stats_from(&ra), stats_from(&rb), stats_from(&rc));
        prop_assert_eq!(
            merged(&merged(&a, &b), &c),
            merged(&a, &merged(&b, &c))
        );
    }

    #[test]
    fn merge_order_never_matters_for_any_fold(
        blocks in proptest::collection::vec(
            proptest::collection::vec(0u64..=u64::MAX, 17..=17),
            1..6,
        ),
        rot in 0usize..6,
    ) {
        // fold the same multiset of worker blocks in two different
        // orders (identity vs rotation) — the engine guarantee is that
        // ANY completion order yields identical stats
        let stats: Vec<ExecutionStats> = blocks.iter().map(|r| stats_from(r)).collect();
        let fold = |xs: &[ExecutionStats]| {
            let mut acc = ExecutionStats::default();
            for s in xs {
                acc.merge(s);
            }
            acc
        };
        let mut rotated = stats.clone();
        rotated.rotate_left(rot % stats.len().max(1));
        prop_assert_eq!(fold(&stats), fold(&rotated));
    }

    #[test]
    fn default_is_merge_identity(
        ra in proptest::collection::vec(0u64..=u64::MAX, 17..=17),
    ) {
        let a = stats_from(&ra);
        prop_assert_eq!(merged(&a, &ExecutionStats::default()), a);
        prop_assert_eq!(merged(&ExecutionStats::default(), &a), a);
    }
}

fn random_pm1(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = Rng::from_seed(seed);
    Tensor::from_fn(shape, |_| if rng.coin(0.5) { 1.0 } else { -1.0 })
}

/// The overhead sweep of `repro ablation_guard` (its smoke and quick
/// configurations, seeded as it seeds them): the checksum column costs
/// exactly one ADC conversion per guarded readout and `tile` cell reads,
/// plus what the retries re-execute, and a guarded execution replays
/// bitwise from a reseeded noise stream.
#[test]
fn guard_overhead_accounting_is_exact_and_reproducible() {
    let seed = 2022u64;
    // (sigma, out_features, in_features, batch, pulses, tile)
    for (sigma, out, inp, batch, pulses, tile) in [
        (0.1f32, 32, 64, 8, 4, 16),
        (0.05, 64, 128, 16, 8, 32),
        (0.1, 64, 128, 16, 8, 32),
        (0.2, 64, 128, 16, 8, 32),
    ] {
        let w = random_pm1(&[out, inp], seed ^ 11);
        let x = random_pm1(&[batch, inp], seed ^ 12);
        let train = Thermometer::new(pulses).unwrap().encode_tensor(&x).unwrap();
        let mut cfg = XbarConfig::functional(sigma);
        cfg.tile_rows = tile;
        cfg.tile_cols = tile;
        // an ADC makes the per-check conversion accounting observable
        cfg.adc_bits = Some(8);
        cfg.exec = ExecOptions::serial();
        let program = |cfg: &XbarConfig| {
            let mut prng = Rng::from_seed(seed ^ 13).stream(RngStream::Device);
            CrossbarLinear::program(&w, cfg, &mut prng).unwrap()
        };
        let noise = || Rng::from_seed(seed ^ 14).stream(RngStream::Noise);
        let plain = program(&cfg);
        let mut armed = program(&cfg.with_guard(GuardPolicy::standard()));
        let (_, ps) = plain.execute_with_stats(&train, &mut noise()).unwrap();
        let (gy, gs) = armed.execute_guarded(&train, &mut noise()).unwrap();
        let at = format!("{out}×{inp} tile {tile} σ = {sigma}");

        assert!(gs.guard.checks > 0, "{at}: no checks");
        let (tile, checks, retries) = (tile as u64, gs.guard.checks, gs.guard.retries);
        assert_eq!(
            gs.adc_conversions - ps.adc_conversions,
            checks + retries * tile,
            "{at}: one checksum conversion per check (+ retry re-conversions)"
        );
        assert_eq!(
            gs.cell_reads - ps.cell_reads,
            checks * tile + retries * tile * tile,
            "{at}: one column of cell reads per check (+ retry re-reads)"
        );
        let (again, _) = armed.execute_guarded(&train, &mut noise()).unwrap();
        assert_eq!(
            gy.as_slice(),
            again.as_slice(),
            "{at}: guarded execution must be bitwise reproducible"
        );
    }
}
