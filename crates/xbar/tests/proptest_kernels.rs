//! Differential testing of the MVM execution paths.
//!
//! The engine picks one path per pulse train: a count-coded train
//! (thermometer, PLA) takes the incremental pulse-delta schedule; a
//! generic train takes the dense schedule, which runs the cached loop.
//! Four properties guard them:
//!
//! 1. **Count-coded vs dense** — a count-coded train agrees with the same
//!    pulses stored densely (its dense twin) within 1e-5, with exactly
//!    equal event stats, across random tile geometries, 1 to 40 pulses
//!    (so trains end inside, at and past the 8- and 16-pulse readout
//!    blocks), noise models and stuck tiles carrying SAF-ECC
//!    corrections. Noise substreams are keyed
//!    by `(pulse, sample, row_tile, col_tile)`, so the comparison is
//!    noise-to-noise, not just mean-to-mean.
//! 2. **Cached bitwise contract** — on rail-programmed tiles with ±1/0
//!    drives, a strided, offset `Tile::mvm_batch` block is *bitwise*
//!    `Tile::mvm_reference`, the raw-conductance oracle, including the
//!    RNG draw order of every noise stream (output noise and gated c2c
//!    draws); fractional drives agree within 1e-5.
//! 3. **Guard composition** — under checksum-guarded execution, the
//!    delta schedule never masks a violation the dense schedule catches,
//!    even when faults are injected mid-sequence.
//! 4. **No stale cache** — after any random sequence of tile mutations
//!    (aging, polarity flips, spare-line replacement, escalated
//!    reprogramming, refresh, fault injection), `Tile::mvm` still agrees
//!    bitwise with the oracle, which reads raw conductances and cannot
//!    be stale. Every mutator must rebuild or patch the cache eagerly
//!    for this to hold.

use membit_encoding::pla::PlaThermometer;
use membit_encoding::{BitEncoder, PulseTrain, Thermometer};
use membit_tensor::{Rng, Tensor};
use membit_xbar::{
    CellHealth, CellSide, CrossbarLinear, DeviceModel, ExecOptions, ExecutionStats, GuardPolicy,
    NoiseSpec, NonIdealitySpec, ProgramStats, RecoveryPolicy, Tile, WriteVerify, XbarConfig,
};
use proptest::prelude::*;

fn pm1_matrix(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = Rng::from_seed(seed);
    Tensor::from_fn(&[rows, cols], |_| if rng.coin(0.5) { 1.0 } else { -1.0 })
}

/// Programs identical hardware (same seed) and executes `train`. Each
/// `(row, col)` of `stuck` pins both cells of that pair on before
/// execution, then a remap with the digital SAF-ECC arm and no spare
/// lines runs: nothing analog cures a double-stuck pair, so those tiles
/// carry corrections.
fn run(
    w: &Tensor,
    train: &PulseTrain,
    mut cfg: XbarConfig,
    seed: u64,
    stuck: &[(usize, usize)],
) -> (Vec<f32>, ExecutionStats) {
    cfg.exec = ExecOptions::serial();
    let mut rng = Rng::from_seed(seed);
    let mut engine = CrossbarLinear::program(w, &cfg, &mut rng).unwrap();
    if !stuck.is_empty() {
        for &(row, col) in stuck {
            for side in [CellSide::Pos, CellSide::Neg] {
                engine
                    .inject_fault(row, col, side, CellHealth::StuckOn)
                    .unwrap();
            }
        }
        let policy = RecoveryPolicy {
            spare_rows: 0,
            spare_cols: 0,
            ..RecoveryPolicy::with_ecc()
        };
        engine.remap(&policy, &mut rng).unwrap();
    }
    let (y, stats) = engine.execute_with_stats(train, &mut rng).unwrap();
    (y.as_slice().to_vec(), stats)
}

/// The pulses of `train` stored densely, one tensor per pulse: a generic
/// train, which takes the dense schedule.
fn dense_twin(train: &PulseTrain) -> PulseTrain {
    let pulses = (0..train.num_pulses())
        .map(|i| train.pulse(i).into_owned())
        .collect();
    PulseTrain::new(pulses, train.weights().into_owned()).unwrap()
}

/// Within the delta-vs-dense tolerance.
fn near(fast: &[f32], reference: &[f32], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(fast.len(), reference.len());
    for (i, (a, b)) in fast.iter().zip(reference).enumerate() {
        prop_assert!(
            (a - b).abs() <= 1e-5 * (1.0 + b.abs()),
            "element {}: {} {} vs {}",
            i,
            what,
            a,
            b
        );
    }
    Ok(())
}

/// `Tile::mvm` and the oracle on one drive from identically seeded
/// generators: each output with its generator's next draw, which pins
/// the draw count and order.
fn mvm_and_reference(tile: &Tile, x: &[f32], noise: &NoiseSpec, seed: u64) -> [(Vec<f32>, u32); 2] {
    let cols = tile.dims().1;
    let (mut a, mut b) = (vec![0.0f32; cols], vec![0.0f32; cols]);
    let (mut rng_a, mut rng_b) = (Rng::from_seed(seed), Rng::from_seed(seed));
    tile.mvm(x, noise, &mut rng_a, &mut a).unwrap();
    tile.mvm_reference(x, noise, &mut rng_b, &mut b).unwrap();
    [
        (a, rng_a.normal(0.0, 1.0).to_bits()),
        (b, rng_b.normal(0.0, 1.0).to_bits()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cached_execution_matches_reference_within_tolerance(
        seed in 0u64..400,
        tile_rows in 3usize..12,
        tile_cols in 3usize..12,
        pla in 0usize..2,
        noise_kind in 0usize..3,
        batch in 1usize..6,
        stuck in proptest::collection::vec((0usize..14, 0usize..10), 0..3),
        pulses in 1usize..=40,
    ) {
        let w = pm1_matrix(10, 14, seed);
        let x = Tensor::from_fn(&[batch, 14], |i| {
            (((i * 5 + seed as usize) % 9) as f32 / 4.0 - 1.0).clamp(-1.0, 1.0)
        });
        let train = if pla == 1 {
            PlaThermometer::new(9, pulses).unwrap().encode_tensor(&x).unwrap()
        } else {
            Thermometer::new(pulses).unwrap().encode_tensor(&x).unwrap()
        };
        let mut cfg = match noise_kind {
            0 => XbarConfig::ideal(),
            1 => XbarConfig::functional(0.3),
            _ => XbarConfig::realistic(0.2), // ADC + variation + write-verify
        };
        cfg.noise.device.c2c_sigma = if noise_kind == 2 { 0.03 } else { 0.0 };
        cfg.tile_rows = tile_rows;
        cfg.tile_cols = tile_cols;
        if noise_kind == 2 {
            // wire-model IR drop, lossy enough to attenuate every cell
            cfg.nonideal = NonIdealitySpec { gwire: 1e4, gload: 1e5, ..NonIdealitySpec::ideal() };
            let map = cfg.nonideal.attenuation_map(tile_rows, tile_cols, cfg.noise.device.g_on);
            prop_assert!(map.is_some_and(|m| m.iter().all(|&a| a < 1.0)));
        }

        // the delta schedule runs from the counts, the dense twin through
        // the cached loop, on identical hardware and noise substreams
        let (y_counts, s_counts) = run(&w, &train, cfg, seed + 2000, &stuck);
        let (y_dense, s_dense) = run(&w, &dense_twin(&train), cfg, seed + 2000, &stuck);
        prop_assert_eq!(s_counts, s_dense, "event stats must not depend on the schedule");
        near(&y_counts, &y_dense, "counts vs dense")?;
    }

    #[test]
    fn cached_execution_is_bitwise_reference_on_rails(
        seed in 0u64..400,
        rows in 3usize..140,
        cols in 1usize..9,
        c2c in 0usize..2,
        stuck in 0usize..2,
        batch in 1usize..6,
        offset in 0usize..3,
        zeros in 0usize..2,
    ) {
        // rail-programmed tiles (ideal device, d2d = 0) driven at ±1/0:
        // a strided, offset mvm_batch block must reproduce the oracle
        // *bitwise*, RNG draw order included, for full ±1 blocks and
        // blocks with undriven rows alike
        let mut device = DeviceModel::ideal();
        device.on_off_ratio = 20.0;
        device.c2c_sigma = if c2c == 1 { 0.03 } else { 0.0 };
        // stuck pairs keep the weights on rails; with c2c they break the
        // uniformity of the per-cell variance
        device.stuck_on_rate = if stuck == 1 { 0.05 } else { 0.0 };
        let w = pm1_matrix(rows, cols, seed);
        let mut rng = Rng::from_seed(seed + 7000);
        let tile = Tile::program(&w, &device, &mut rng).unwrap();
        prop_assert!(tile.packed_ready(false));
        let noise = NoiseSpec::functional(0.3);
        let stride = rows + offset;
        let xs: Vec<f32> = (0..batch * stride)
            .map(|_| match rng.below(2 + zeros) {
                0 => 1.0,
                1 => -1.0,
                _ => 0.0,
            })
            .collect();
        let block = |xs: &[f32]| {
            let mut rngs: Vec<Rng> = (0..batch as u64).map(|s| Rng::from_seed(seed + s)).collect();
            let mut out = vec![0.0f32; batch * cols];
            tile.mvm_batch(xs, stride, offset, &noise, &mut rngs, &mut out).unwrap();
            let next: Vec<u32> = rngs.iter_mut().map(|r| r.normal(0.0, 1.0).to_bits()).collect();
            (out, next)
        };
        let oracle = |xs: &[f32]| {
            let mut out = vec![0.0f32; batch * cols];
            let mut next = Vec::new();
            for s in 0..batch {
                let mut r = Rng::from_seed(seed + s as u64);
                let x = &xs[s * stride + offset..(s + 1) * stride];
                tile.mvm_reference(x, &noise, &mut r, &mut out[s * cols..(s + 1) * cols]).unwrap();
                next.push(r.normal(0.0, 1.0).to_bits());
            }
            (out, next)
        };
        prop_assert_eq!(block(&xs), oracle(&xs), "mvm_batch must be bitwise the oracle on rails");
        // fractional drives agree within the accumulation-order tolerance
        let frac: Vec<f32> = xs.iter().map(|&v| v * 0.75).collect();
        let ((y, next), (y_ref, next_ref)) = (block(&frac), oracle(&frac));
        near(&y, &y_ref, "fractional")?;
        prop_assert_eq!(next, next_ref);
    }

    #[test]
    fn cached_kernel_never_masks_guard_violations(
        seed in 0u64..400,
        tile_rows in 3usize..12,
        tile_cols in 3usize..12,
        noise_kind in 0usize..3,
        batch in 1usize..5,
        faults in proptest::collection::vec((0usize..14, 0usize..10), 1..6),
        pla in 0usize..2,
        upsets in 0usize..2,
        pulses in 1usize..=40,
    ) {
        // The incremental pulse-delta schedule must compose with guarded
        // execution: for any fault set injected mid-sequence (between a
        // clean execute and a faulty one), the delta schedule must never
        // mask a checksum violation the dense schedule of the same pulses
        // catches. Detection is compared *binarily*, not count-for-count
        // — the schedules differ by ≤1e-5 in accumulation order, so a
        // check sitting exactly on the tolerance boundary may
        // legitimately flip, but a fault big enough to matter trips both.
        let w = pm1_matrix(10, 14, seed);
        let x = Tensor::from_fn(&[batch, 14], |i| {
            (((i * 5 + seed as usize) % 9) as f32 / 4.0 - 1.0).clamp(-1.0, 1.0)
        });
        let train = if pla == 1 {
            PlaThermometer::new(9, pulses).unwrap().encode_tensor(&x).unwrap()
        } else {
            Thermometer::new(pulses).unwrap().encode_tensor(&x).unwrap()
        };
        let dense = dense_twin(&train);
        let mut cfg = match noise_kind {
            0 => XbarConfig::ideal(),
            1 => XbarConfig::functional(0.3),
            _ => XbarConfig::realistic(0.2),
        };
        cfg.tile_rows = tile_rows;
        cfg.tile_cols = tile_cols;
        // detection-only ladder: no mid-execution refresh/remap, so both
        // engines run the whole sequence on identical hardware
        cfg.guard = Some(GuardPolicy::detect_only());
        cfg.exec = ExecOptions::serial();

        // the faults are pinned stuck-off cells, or transient upsets that
        // drive both cells of a pair onto the high rail (zeroing its
        // weight until a refresh, which detect-only never runs)
        let run_guarded = |train: &PulseTrain| {
            let mut rng = Rng::from_seed(seed + 6000);
            let mut engine = CrossbarLinear::program(&w, &cfg, &mut rng).unwrap();
            let (_, clean) = engine.execute_guarded(train, &mut rng).unwrap();
            for &(row, col) in &faults {
                if upsets == 1 {
                    for side in [CellSide::Pos, CellSide::Neg] {
                        engine.upset_cell(row, col, side, true).unwrap();
                    }
                } else {
                    engine
                        .inject_fault(row, col, CellSide::Pos, CellHealth::StuckOff)
                        .unwrap();
                }
            }
            let (y, faulty) = engine.execute_guarded(train, &mut rng).unwrap();
            (clean.guard, faulty.guard, y.as_slice().to_vec())
        };
        let (clean_c, faulty_c, y_c) = run_guarded(&train);
        let (clean_d, faulty_d, y_d) = run_guarded(&dense);

        // before injection the array is exactly as programmed: at z = 6
        // a false positive is a ~1e-9 event, so both schedules must be clean
        prop_assert_eq!(clean_c.violations, 0, "delta schedule false-positive: {:?}", clean_c);
        prop_assert_eq!(clean_d.violations, 0, "dense schedule false-positive: {:?}", clean_d);
        // the one-sided no-masking property
        prop_assert!(
            !(faulty_d.violations > 0 && faulty_c.violations == 0),
            "delta schedule masked a violation: delta {:?} vs dense {:?}",
            faulty_c, faulty_d
        );
        // when the fault set is benign under both schedules the outputs
        // are ordinary guarded readouts and must agree like any other MVM
        if faulty_c.violations == 0 && faulty_d.violations == 0 {
            near(&y_c, &y_d, "delta")?;
        }
    }

    #[test]
    fn mutations_never_leave_a_stale_cache(
        seed in 0u64..400,
        rows in 3usize..10,
        cols in 3usize..10,
        ops in proptest::collection::vec(0usize..7, 1..10),
    ) {
        // IR drop enters a tile only through the engine's wire-model map,
        // so the randomized mutation sequences under IR drop run in
        // `tile::tests::ir_dropped_tiles_stay_bitwise_reference_through_mutations`
        let mut device = DeviceModel::ideal();
        device.d2d_sigma = 0.04;
        device.c2c_sigma = 0.02;
        device.on_off_ratio = 20.0;
        device.stuck_on_rate = 0.02;
        device.stuck_off_rate = 0.02;
        let w = pm1_matrix(rows, cols, seed);
        let mut rng = Rng::from_seed(seed + 3000);
        let mut tile = Tile::program(&w, &device, &mut rng).unwrap();
        let mut stats = ProgramStats::default();

        // a ±1 probe and a ±1/0 probe with undriven rows: the cached
        // loop must agree bitwise with the oracle on both whenever the
        // cache is fresh
        let probes: [Vec<f32>; 2] = [
            (0..rows)
                .map(|i| if (i + seed as usize).is_multiple_of(2) { 1.0 } else { -1.0 })
                .collect(),
            (0..rows).map(|i| [1.0, -1.0, 0.0][(i + seed as usize) % 3]).collect(),
        ];
        let noise = NoiseSpec::functional(0.2);
        let check = |tile: &Tile, op: usize| -> std::result::Result<(), TestCaseError> {
            for x in &probes {
                let [fast, slow] = mvm_and_reference(tile, x, &noise, seed + 4000);
                prop_assert_eq!(fast, slow, "stale cache after op {} on probe {:?}", op, x);
            }
            Ok(())
        };
        check(&tile, 99)?; // fresh from programming
        for (k, &op) in ops.iter().enumerate() {
            match op {
                0 => tile.age(50.0 * (k + 1) as f32, 0.05, 0.01, &mut rng).unwrap(),
                1 => tile.flip_column(k % cols, &mut rng).unwrap(),
                2 => tile.replace_row(k % rows, &mut rng).unwrap(),
                3 => tile.replace_col(k % cols, &mut rng).unwrap(),
                4 => {
                    tile.reprogram_pair(k % rows, k % cols, &WriteVerify::standard(), &mut rng, &mut stats)
                        .map(|_| ())
                        .unwrap();
                }
                5 => tile.refresh(None, &mut rng, &mut stats),
                _ => {
                    let side = if k % 2 == 0 { CellSide::Pos } else { CellSide::Neg };
                    let health = match k % 3 {
                        0 => CellHealth::StuckOn,
                        1 => CellHealth::StuckOff,
                        _ => CellHealth::Healthy,
                    };
                    tile.inject_fault(k % rows, k % cols, side, health).unwrap();
                }
            }
            check(&tile, op)?;
        }
    }
}
