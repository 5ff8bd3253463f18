//! Differential testing of the cached-weight and bit-packed MVM fast
//! paths.
//!
//! Four properties guard the `MvmKernel::Cached` and `MvmKernel::Packed`
//! paths (and the incremental pulse-delta schedule Cached unlocks for
//! nested-unary trains):
//!
//! 1. **Kernel agreement** — on identical hardware, cached/packed and
//!    reference execution agree within 1e-5 across random tile
//!    geometries, encoders (thermometer, bit-sliced, PLA, amplitude) and
//!    noise models, with exactly equal event stats. Noise substreams are
//!    keyed by `(pulse, sample, row_tile, col_tile)`, so the comparison
//!    is noise-to-noise, not just mean-to-mean.
//! 2. **Packed bitwise contract** — on rail-programmed devices with
//!    binary (±1/0) pulse trains, the popcount kernel is *bitwise*
//!    identical to Reference, including the RNG draw order of every
//!    noise stream (output noise and gated c2c draws).
//! 3. **No stale caches or planes** — after any random sequence of tile
//!    mutations (aging, polarity flips, spare-line replacement,
//!    escalated reprogramming, refresh, fault injection), the fast
//!    kernels still agree bitwise with the reference kernel, which reads
//!    raw conductances and cannot be stale. Every mutator must rebuild
//!    or patch the cache — and the packed planes riding on it — eagerly
//!    for this to hold.
//! 4. **Guard composition** — under checksum-guarded execution, the
//!    cached kernel never masks a violation the reference kernel
//!    catches, even when faults are injected mid-sequence.
//! 5. **Count-coded trains** — a thermometer or PLA train (stored as one
//!    high count per element) executes exactly like the same pulses
//!    stored densely: bitwise, stats included, under Reference and
//!    Packed (both expand the counts into the dense schedule), and within
//!    the kernel tolerance under Cached (whose delta schedule runs from
//!    the counts) — across odd strip heights, guard retries and SAF-ECC
//!    tiles.

use membit_encoding::pla::PlaThermometer;
use membit_encoding::{Amplitude, BitEncoder, BitSlicing, PulseTrain, Thermometer, TrainKind};
use membit_tensor::{Rng, Tensor};
use membit_xbar::{
    CellHealth, CellSide, CrossbarLinear, DeviceModel, ExecOptions, ExecutionStats, GuardPolicy,
    MvmKernel, NoiseSpec, ProgramStats, RecoveryPolicy, Tile, WriteVerify, XbarConfig,
};
use proptest::prelude::*;

fn pm1_matrix(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = Rng::from_seed(seed);
    Tensor::from_fn(&[rows, cols], |_| if rng.coin(0.5) { 1.0 } else { -1.0 })
}

/// Programs identical hardware (same seed) and executes under `kernel`.
/// Each `(row, col)` of `stuck` pins both cells of that pair on before
/// execution, then a remap with the digital SAF-ECC arm and no spare
/// lines runs: nothing analog cures a double-stuck pair, so those tiles
/// carry corrections.
fn run(
    w: &Tensor,
    train: &PulseTrain,
    mut cfg: XbarConfig,
    seed: u64,
    kernel: MvmKernel,
    stuck: &[(usize, usize)],
) -> (Vec<f32>, ExecutionStats) {
    cfg.exec = ExecOptions::serial().with_kernel(kernel);
    let mut rng = Rng::from_seed(seed);
    let mut engine = CrossbarLinear::program(w, &cfg, &mut rng).unwrap();
    if !stuck.is_empty() {
        for &(row, col) in stuck {
            for side in [CellSide::Pos, CellSide::Neg] {
                engine.inject_fault(row, col, side, CellHealth::StuckOn).unwrap();
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
/// train, which every kernel runs through the dense schedule.
fn dense_twin(train: &PulseTrain) -> PulseTrain {
    let pulses = (0..train.num_pulses())
        .map(|i| train.pulse(i).into_owned())
        .collect();
    PulseTrain::new(pulses, train.weights().into_owned()).unwrap()
}

/// Within the cached-vs-reference kernel tolerance.
fn near(fast: &[f32], reference: &[f32], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(fast.len(), reference.len());
    for (i, (a, b)) in fast.iter().zip(reference).enumerate() {
        prop_assert!(
            (a - b).abs() <= 1e-5 * (1.0 + b.abs()),
            "element {}: {} {} vs {}", i, what, a, b
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cached_execution_matches_reference_within_tolerance(
        seed in 0u64..400,
        tile_rows in 3usize..12,
        tile_cols in 3usize..12,
        encoder in 0usize..4,
        noise_kind in 0usize..3,
        batch in 1usize..6,
        stuck in proptest::collection::vec((0usize..14, 0usize..10), 0..3),
    ) {
        let w = pm1_matrix(10, 14, seed);
        let x = Tensor::from_fn(&[batch, 14], |i| {
            (((i * 5 + seed as usize) % 9) as f32 / 4.0 - 1.0).clamp(-1.0, 1.0)
        });
        let train = match encoder {
            0 => Thermometer::new(6).unwrap().encode_tensor(&x).unwrap(),
            1 => BitSlicing::new(3).unwrap().encode_tensor(&x).unwrap(),
            2 => PlaThermometer::new(9, 7).unwrap().encode_tensor(&x).unwrap(),
            // fractional single-pulse inputs: exercises the non-binary case
            _ => Amplitude::new(9).unwrap().encode_tensor(&x).unwrap(),
        };
        let mut cfg = match noise_kind {
            0 => XbarConfig::ideal(),
            1 => XbarConfig::functional(0.3),
            _ => XbarConfig::realistic(0.2), // ADC + variation + write-verify
        };
        cfg.noise.device.c2c_sigma = if noise_kind == 2 { 0.03 } else { 0.0 };
        cfg.noise.device.ir_drop_alpha = if noise_kind == 2 { 0.05 } else { 0.0 };
        cfg.tile_rows = tile_rows;
        cfg.tile_cols = tile_cols;

        let (y_ref, s_ref) = run(&w, &train, cfg, seed + 2000, MvmKernel::Reference, &stuck);
        for kernel in [MvmKernel::Cached, MvmKernel::Packed] {
            let (y_fast, s_fast) = run(&w, &train, cfg, seed + 2000, kernel, &stuck);
            prop_assert_eq!(s_fast, s_ref, "event stats must not depend on the kernel");
            near(&y_fast, &y_ref, &format!("{kernel:?}"))?;
        }
        // a count-coded train against its own pulses stored densely
        if train.kind() == TrainKind::NestedUnary {
            let dense = dense_twin(&train);
            for kernel in [MvmKernel::Reference, MvmKernel::Packed, MvmKernel::Cached] {
                let (y_counts, s_counts) = run(&w, &train, cfg, seed + 2000, kernel, &stuck);
                let (y_dense, s_dense) = run(&w, &dense, cfg, seed + 2000, kernel, &stuck);
                prop_assert_eq!(s_counts, s_dense, "{:?}: counts vs dense stats", kernel);
                if kernel == MvmKernel::Cached {
                    near(&y_counts, &y_dense, "cached counts vs dense")?;
                } else {
                    prop_assert_eq!(y_counts, y_dense, "{:?}: counts vs dense", kernel);
                }
            }
        }
    }

    #[test]
    fn packed_execution_is_bitwise_reference_on_rails(
        seed in 0u64..400,
        tile_rows in 3usize..12,
        tile_cols in 3usize..12,
        encoder in 0usize..3,
        c2c in 0usize..2,
        batch in 1usize..6,
    ) {
        // rail-programmed hardware (ideal device, d2d = 0) + binary ±1/0
        // pulse trains: the popcount kernel must reproduce the reference
        // loop *bitwise*, RNG draw order included. Fractional inputs and
        // heterogeneous devices are covered by the tolerance test above
        // (where Packed transparently downgrades per call / per tile).
        let w = pm1_matrix(10, 14, seed);
        let x = Tensor::from_fn(&[batch, 14], |i| {
            (((i * 5 + seed as usize) % 9) as f32 / 4.0 - 1.0).clamp(-1.0, 1.0)
        });
        let train = match encoder {
            0 => Thermometer::new(6).unwrap().encode_tensor(&x).unwrap(),
            1 => BitSlicing::new(3).unwrap().encode_tensor(&x).unwrap(),
            _ => PlaThermometer::new(9, 7).unwrap().encode_tensor(&x).unwrap(),
        };
        let mut cfg = XbarConfig::functional(0.3);
        cfg.noise.device.on_off_ratio = 20.0;
        cfg.noise.device.c2c_sigma = if c2c == 1 { 0.03 } else { 0.0 };
        cfg.tile_rows = tile_rows;
        cfg.tile_cols = tile_cols;

        let (y_packed, s_packed) = run(&w, &train, cfg, seed + 7000, MvmKernel::Packed, &[]);
        let (y_ref, s_ref) = run(&w, &train, cfg, seed + 7000, MvmKernel::Reference, &[]);
        prop_assert_eq!(s_packed, s_ref);
        prop_assert_eq!(&y_packed, &y_ref, "packed must be bitwise reference on rails");
        // the popcount path engages on expanded counts exactly as on the
        // same pulses stored densely
        if train.kind() == TrainKind::NestedUnary {
            let dense = dense_twin(&train);
            let (y_dense, s_dense) = run(&w, &dense, cfg, seed + 7000, MvmKernel::Packed, &[]);
            prop_assert_eq!(s_dense, s_packed);
            prop_assert_eq!(y_dense, y_packed, "packed: counts vs dense");
        }
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
    ) {
        // The incremental pulse-delta schedule must compose with guarded
        // execution: for any fault set injected mid-sequence (between a
        // clean execute and a faulty one), the cached kernel must never
        // mask a checksum violation the reference kernel catches.
        // Detection is compared *binarily*, not count-for-count — the
        // kernels differ by ≤1e-5 in accumulation order, so a check
        // sitting exactly on the tolerance boundary may legitimately
        // flip, but a fault big enough to matter trips both.
        let w = pm1_matrix(10, 14, seed);
        let x = Tensor::from_fn(&[batch, 14], |i| {
            (((i * 5 + seed as usize) % 9) as f32 / 4.0 - 1.0).clamp(-1.0, 1.0)
        });
        let train = if pla == 1 {
            PlaThermometer::new(9, 7).unwrap().encode_tensor(&x).unwrap()
        } else {
            Thermometer::new(6).unwrap().encode_tensor(&x).unwrap()
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

        // the faults are pinned stuck-off cells, or transient upsets that
        // drive both cells of a pair onto the high rail (zeroing its
        // weight until a refresh, which detect-only never runs)
        let run_guarded = |kernel: MvmKernel, train: &PulseTrain| {
            let mut cfg = cfg;
            cfg.exec = ExecOptions::serial().with_kernel(kernel);
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
            (clean, faulty, y.as_slice().to_vec())
        };
        // count-coded vs dense: the same guard decisions, retries and
        // outputs, bit for bit, wherever both take the dense schedule
        for kernel in [MvmKernel::Reference, MvmKernel::Packed] {
            prop_assert_eq!(
                run_guarded(kernel, &train),
                run_guarded(kernel, &dense),
                "{:?}: counts vs dense under the guard", kernel
            );
        }
        let (clean_c, faulty_c, y_c) = run_guarded(MvmKernel::Cached, &train);
        let (clean_r, faulty_r, y_r) = run_guarded(MvmKernel::Reference, &dense);
        let (clean_c, faulty_c) = (clean_c.guard, faulty_c.guard);
        let (clean_r, faulty_r) = (clean_r.guard, faulty_r.guard);

        // before injection the array is exactly as programmed: at z = 6
        // a false positive is a ~1e-9 event, so both kernels must be clean
        prop_assert_eq!(clean_c.violations, 0, "cached kernel false-positive: {:?}", clean_c);
        prop_assert_eq!(clean_r.violations, 0, "reference kernel false-positive: {:?}", clean_r);
        // the one-sided no-masking property
        prop_assert!(
            !(faulty_r.violations > 0 && faulty_c.violations == 0),
            "cached kernel masked a violation: cached {:?} vs reference {:?}",
            faulty_c, faulty_r
        );
        // when the fault set is benign under both kernels the outputs are
        // ordinary guarded readouts and must agree like any other MVM
        if faulty_c.violations == 0 && faulty_r.violations == 0 {
            near(&y_c, &y_r, "cached")?;
        }
    }

    #[test]
    fn mutations_never_leave_a_stale_cache(
        seed in 0u64..400,
        rows in 3usize..10,
        cols in 3usize..10,
        ops in proptest::collection::vec(0usize..7, 1..10),
    ) {
        let mut device = DeviceModel::ideal();
        device.d2d_sigma = 0.04;
        device.c2c_sigma = 0.02;
        device.ir_drop_alpha = 0.05;
        device.on_off_ratio = 20.0;
        device.stuck_on_rate = 0.02;
        device.stuck_off_rate = 0.02;
        let w = pm1_matrix(rows, cols, seed);
        let mut rng = Rng::from_seed(seed + 3000);
        let mut tile = Tile::program(&w, &device, &mut rng).unwrap();
        let mut stats = ProgramStats::default();

        // a ±1 probe: the two kernels must agree bitwise on it whenever
        // the cache is fresh
        let x: Vec<f32> = (0..rows)
            .map(|i| if (i + seed as usize).is_multiple_of(2) { 1.0 } else { -1.0 })
            .collect();
        let noise = NoiseSpec::functional(0.2);
        let check = |tile: &Tile, op: usize| -> std::result::Result<(), TestCaseError> {
            let mut slow = vec![0.0f32; cols];
            let mut rng_b = Rng::from_seed(seed + 4000);
            tile.mvm_with(&x, &noise, &mut rng_b, &mut slow, MvmKernel::Reference).unwrap();
            // Packed downgrades to Cached on this lossy device, so both
            // fast kernels must track the raw-conductance loop bitwise
            for kernel in [MvmKernel::Cached, MvmKernel::Packed] {
                let mut fast = vec![0.0f32; cols];
                let mut rng_a = Rng::from_seed(seed + 4000);
                tile.mvm_with(&x, &noise, &mut rng_a, &mut fast, kernel).unwrap();
                prop_assert_eq!(
                    &fast, &slow,
                    "stale cache after op {} under {:?}", op, kernel
                );
            }
            Ok(())
        };
        check(&tile, 99)?; // fresh from programming
        for (k, &op) in ops.iter().enumerate() {
            match op {
                0 => tile.age(50.0 * (k + 1) as f32, 0.05, 0.01, &mut rng),
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

    #[test]
    fn mutations_never_leave_stale_packed_planes(
        seed in 0u64..400,
        rows in 3usize..10,
        cols in 3usize..10,
        ops in proptest::collection::vec(0usize..6, 1..10),
    ) {
        // the rails counterpart of `mutations_never_leave_a_stale_cache`:
        // on a rail-programmed device the popcount kernel stays *engaged*
        // through polarity flips, spare-line swaps, reprogramming,
        // refresh, and fault injection (aging is deliberately excluded —
        // drift de-rails the tile and is covered by the lossy test), so
        // every mutator must rebuild the packed planes exactly where it
        // patches the weight cache. A stale sign/active word or scale
        // would break bitwise agreement with the raw-conductance loop.
        let mut device = DeviceModel::ideal();
        device.c2c_sigma = 0.02;
        device.on_off_ratio = 20.0;
        device.stuck_on_rate = 0.02;
        device.stuck_off_rate = 0.02;
        let w = pm1_matrix(rows, cols, seed);
        let mut rng = Rng::from_seed(seed + 8000);
        let mut tile = Tile::program(&w, &device, &mut rng).unwrap();
        let mut stats = ProgramStats::default();

        let x: Vec<f32> = (0..rows)
            .map(|i| match (i + seed as usize) % 3 {
                0 => 1.0,
                1 => -1.0,
                _ => 0.0, // undriven rows: exercises the valid plane
            })
            .collect();
        let noise = NoiseSpec::functional(0.2);
        let check = |tile: &Tile, op: usize| -> std::result::Result<(), TestCaseError> {
            let mut fast = vec![0.0f32; cols];
            let mut slow = vec![0.0f32; cols];
            let mut rng_a = Rng::from_seed(seed + 9000);
            let mut rng_b = Rng::from_seed(seed + 9000);
            tile.mvm_with(&x, &noise, &mut rng_a, &mut fast, MvmKernel::Packed).unwrap();
            tile.mvm_with(&x, &noise, &mut rng_b, &mut slow, MvmKernel::Reference).unwrap();
            prop_assert_eq!(fast, slow, "stale packed planes after op {}", op);
            Ok(())
        };
        check(&tile, 99)?; // fresh from programming
        for (k, &op) in ops.iter().enumerate() {
            match op {
                0 => tile.flip_column(k % cols, &mut rng).unwrap(),
                1 => tile.replace_row(k % rows, &mut rng).unwrap(),
                2 => tile.replace_col(k % cols, &mut rng).unwrap(),
                3 => {
                    tile.reprogram_pair(k % rows, k % cols, &WriteVerify::standard(), &mut rng, &mut stats)
                        .map(|_| ())
                        .unwrap();
                }
                4 => tile.refresh(None, &mut rng, &mut stats),
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
