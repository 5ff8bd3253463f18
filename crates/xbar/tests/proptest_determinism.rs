//! Thread-count determinism of the parallel execution engine.
//!
//! The engine derives every noise draw from substreams keyed by
//! `(pulse, sample, row_tile, col_tile)` (programming: `(row_tile,
//! col_tile)`), so programming + execution must be **bitwise identical**
//! for every `max_threads` setting — across tile geometries, encoders
//! and noise models, on every MVM path (the delta schedule, the cached
//! and the popcount loops reorder their loops but not their substream
//! keys) — and the closed-form variance
//! laws (paper Eqs. 2/3) must keep holding when the Monte-Carlo runs
//! through the parallel path.

use membit_encoding::pla::PlaThermometer;
use membit_encoding::{BitEncoder, BitSlicing, PulseTrain, Thermometer};
use membit_tensor::{Rng, Tensor};
use membit_xbar::{
    CellHealth, CellSide, CrossbarLinear, ExecOptions, ExecutionStats, GuardPolicy, XbarConfig,
};
use proptest::prelude::*;

fn pm1_matrix(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = Rng::from_seed(seed);
    Tensor::from_fn(&[rows, cols], |_| if rng.coin(0.5) { 1.0 } else { -1.0 })
}

/// The pulses of a count-coded train stored densely: a generic train,
/// which takes the dense schedule (popcount loops on rails tiles).
fn dense_twin(train: &PulseTrain) -> PulseTrain {
    let pulses = (0..train.num_pulses())
        .map(|i| train.pulse(i).into_owned())
        .collect();
    PulseTrain::new(pulses, train.weights().into_owned()).unwrap()
}

/// Programs and executes under the given thread cap, returning the raw
/// output bits and stats.
fn run(
    w: &Tensor,
    train: &PulseTrain,
    mut cfg: XbarConfig,
    seed: u64,
    threads: usize,
) -> (Vec<f32>, ExecutionStats) {
    cfg.exec = ExecOptions {
        max_threads: threads,
        samples_per_thread: 1,
    };
    let mut rng = Rng::from_seed(seed);
    let engine = CrossbarLinear::program(w, &cfg, &mut rng).unwrap();
    let (y, stats) = engine.execute_with_stats(train, &mut rng).unwrap();
    (y.as_slice().to_vec(), stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn execution_is_bitwise_identical_across_thread_counts(
        seed in 0u64..300,
        tile_rows in 3usize..12,
        tile_cols in 3usize..12,
        encoder in 0usize..3,
        noise_kind in 0usize..3,
        batch in 1usize..7,
    ) {
        let w = pm1_matrix(10, 14, seed);
        let x = Tensor::from_fn(&[batch, 14], |i| {
            (((i * 5 + seed as usize) % 9) as f32 / 4.0 - 1.0).clamp(-1.0, 1.0)
        });
        let train = match encoder {
            0 => Thermometer::new(6).unwrap().encode_tensor(&x).unwrap(),
            1 => BitSlicing::new(3).unwrap().encode_tensor(&x).unwrap(),
            _ => PlaThermometer::new(9, 6).unwrap().encode_tensor(&x).unwrap(),
        };
        let mut cfg = match noise_kind {
            0 => XbarConfig::ideal(),
            1 => XbarConfig::functional(0.3),
            _ => XbarConfig::realistic(0.2), // ADC + variation + write-verify
        };
        cfg.tile_rows = tile_rows;
        cfg.tile_cols = tile_cols;

        let (y1, s1) = run(&w, &train, cfg, seed + 1000, 1);
        for threads in [2usize, 8] {
            let (yt, st) = run(&w, &train, cfg, seed + 1000, threads);
            // outputs bitwise identical, stats exactly equal
            prop_assert_eq!(&y1, &yt, "outputs diverged at {} threads", threads);
            prop_assert_eq!(s1, st, "stats diverged at {} threads", threads);
        }
    }

    #[test]
    fn guarded_execution_is_bitwise_identical_across_thread_counts(
        seed in 0u64..300,
        tile_rows in 3usize..12,
        tile_cols in 3usize..12,
        noise_kind in 0usize..3,
        batch in 1usize..7,
        faults in proptest::collection::vec((0usize..14, 0usize..10), 0..6),
    ) {
        // the guard's checksum, retry, and ladder noise all come from
        // substreams keyed by (pulse, sample, tile, stream-tag, attempt),
        // and ladder decisions depend only on order-independent per-tile
        // violation counts — so guarded execution, including detections
        // triggered by mid-inference fault injection, must stay bitwise
        // identical for every thread count
        let w = pm1_matrix(10, 14, seed);
        let x = Tensor::from_fn(&[batch, 14], |i| {
            (((i * 5 + seed as usize) % 9) as f32 / 4.0 - 1.0).clamp(-1.0, 1.0)
        });
        let train = Thermometer::new(6).unwrap().encode_tensor(&x).unwrap();
        let mut cfg = match noise_kind {
            0 => XbarConfig::ideal(),
            1 => XbarConfig::functional(0.3),
            _ => XbarConfig::realistic(0.2),
        };
        cfg.tile_rows = tile_rows;
        cfg.tile_cols = tile_cols;
        cfg.guard = Some(GuardPolicy::standard());

        let run_guarded = |threads: usize| {
            let mut cfg = cfg;
            cfg.exec = ExecOptions { max_threads: threads, samples_per_thread: 1 };
            let mut rng = Rng::from_seed(seed + 5000);
            let mut engine = CrossbarLinear::program(&w, &cfg, &mut rng).unwrap();
            for &(row, col) in &faults {
                engine.inject_fault(row, col, CellSide::Pos, CellHealth::StuckOff).unwrap();
            }
            let (y, stats) = engine.execute_guarded(&train, &mut rng).unwrap();
            (y.as_slice().to_vec(), stats, engine.is_degraded())
        };
        let (y1, s1, d1) = run_guarded(1);
        for threads in [2usize, 8] {
            let (yt, st, dt) = run_guarded(threads);
            prop_assert_eq!(&y1, &yt, "guarded outputs diverged at {} threads", threads);
            prop_assert_eq!(s1, st, "guarded stats diverged at {} threads", threads);
            prop_assert_eq!(d1, dt);
        }
    }

    #[test]
    fn repeated_executions_draw_fresh_noise(seed in 0u64..300) {
        // substream derivation must not freeze the noise: two executes on
        // one rng see different realizations (nonce-keyed families)
        let w = Tensor::ones(&[1, 4]);
        let mut rng = Rng::from_seed(seed);
        let engine = CrossbarLinear::program(&w, &XbarConfig::functional(1.0), &mut rng).unwrap();
        let train = Thermometer::new(4)
            .unwrap()
            .encode_tensor(&Tensor::zeros(&[1, 4]))
            .unwrap();
        let a = engine.execute(&train, &mut rng).unwrap();
        let b = engine.execute(&train, &mut rng).unwrap();
        prop_assert_ne!(a.at(0), b.at(0));
    }
}

/// The stage-1 retry path specifically: a fixture engineered to trip the
/// detector (loose z on a noisy array) must exercise retries, and the
/// retried outputs must stay bitwise identical across thread counts —
/// retry noise is keyed by `(pulse, sample, tile, retry-tag, attempt)`,
/// never drawn from a worker-local stream.
#[test]
fn guard_retry_path_is_bitwise_identical_across_thread_counts() {
    let w = pm1_matrix(12, 16, 77);
    let x = Tensor::from_fn(&[8, 16], |i| ((i % 9) as f32 / 4.0 - 1.0).clamp(-1.0, 1.0));
    let train = Thermometer::new(8).unwrap().encode_tensor(&x).unwrap();
    let mut policy = GuardPolicy::standard();
    policy.z = 2.0; // ~4.6% of clean checks trip → plenty of retries
    policy.min_tolerance = 0.0;
    policy.max_retries = 8;
    policy.refresh_rounds = 0;
    policy.remap_rounds = 0;
    let mut cfg = XbarConfig::functional(0.4);
    cfg.tile_rows = 8;
    cfg.tile_cols = 8;
    cfg.guard = Some(policy);

    let run_guarded = |threads: usize, train: &PulseTrain| {
        let mut cfg = cfg;
        cfg.exec = ExecOptions {
            max_threads: threads,
            samples_per_thread: 1,
        };
        let mut rng = Rng::from_seed(78);
        let mut engine = CrossbarLinear::program(&w, &cfg, &mut rng).unwrap();
        let (y, stats) = engine.execute_guarded(train, &mut rng).unwrap();
        (y.as_slice().to_vec(), stats)
    };
    // the delta schedule, and the dense one through the popcount loops
    for (what, train) in [("counts", &train), ("dense", &dense_twin(&train))] {
        let (y1, s1) = run_guarded(1, train);
        assert!(s1.guard.retries > 0, "fixture must exercise retries ({what})");
        assert!(s1.guard.retry_successes > 0, "{:?}", s1.guard);
        for threads in [2usize, 8] {
            let (yt, st) = run_guarded(threads, train);
            assert_eq!(y1, yt, "retry outputs diverged at {threads} threads ({what})");
            assert_eq!(s1, st, "retry stats diverged at {threads} threads ({what})");
        }
    }
}

/// Paper Eq. 3 — thermometer codes with `p` pulses average per-pulse
/// noise down to variance σ²/p — must hold when the Monte-Carlo batch
/// runs through the multi-threaded path (8 samples per execute, one per
/// worker).
#[test]
fn monte_carlo_variance_matches_eq3_under_parallel_execution() {
    let w = Tensor::ones(&[1, 4]);
    let sigma = 2.0f32;
    let p = 8usize;
    let mut cfg = XbarConfig::functional(sigma);
    cfg.exec = ExecOptions {
        max_threads: 8,
        samples_per_thread: 1,
    };
    let mut rng = Rng::from_seed(41);
    let xbar = CrossbarLinear::program(&w, &cfg, &mut rng).unwrap();
    let batch = 8usize;
    let train = Thermometer::new(p)
        .unwrap()
        .encode_tensor(&Tensor::zeros(&[batch, 4]))
        .unwrap();
    let mut samples = Vec::new();
    for _ in 0..400 {
        let y = xbar.execute(&train, &mut rng).unwrap();
        samples.extend_from_slice(y.as_slice());
    }
    let mean = samples.iter().sum::<f32>() / samples.len() as f32;
    let var =
        samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / samples.len() as f32;
    let expect = sigma * sigma / p as f32;
    assert!(
        (var - expect).abs() < 0.15 * expect + 0.02,
        "var {var} vs {expect}"
    );
}

/// Paper Eq. 2 — bit-sliced codes accumulate per-pulse noise as
/// Σ4^i/(Σ2^i)²·σ² — likewise must survive the parallel path.
#[test]
fn monte_carlo_variance_matches_eq2_under_parallel_execution() {
    let w = Tensor::ones(&[1, 4]);
    let sigma = 2.0f32;
    let b = 3usize;
    let mut cfg = XbarConfig::functional(sigma);
    cfg.exec = ExecOptions {
        max_threads: 8,
        samples_per_thread: 1,
    };
    let mut rng = Rng::from_seed(42);
    let xbar = CrossbarLinear::program(&w, &cfg, &mut rng).unwrap();
    let batch = 8usize;
    let train = BitSlicing::new(b)
        .unwrap()
        .encode_tensor(&Tensor::zeros(&[batch, 4]))
        .unwrap();
    let mut samples = Vec::new();
    for _ in 0..400 {
        let y = xbar.execute(&train, &mut rng).unwrap();
        samples.extend_from_slice(y.as_slice());
    }
    let mean = samples.iter().sum::<f32>() / samples.len() as f32;
    let var =
        samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / samples.len() as f32;
    let expect = (sigma * sigma) * 21.0 / 49.0; // Σ4^i / (Σ2^i)² for b=3
    assert!(
        (var - expect).abs() < 0.15 * expect + 0.02,
        "var {var} vs {expect}"
    );
}

/// The full escalation ladder (retry → refresh → remap) on the popcount
/// loops: a rails fixture driven by a generic train, with a
/// post-deployment fault burst
/// must trip checksums, escalate past retries to tile remaps, and the
/// whole run — detection, repair, and the final outputs — must be
/// bitwise identical at 1 vs 4 threads. Ladder repairs reprogram cells
/// (rebuilding the packed planes mid-flight), so this also fuzzes plane
/// freshness along the recovery path.
#[test]
fn packed_guard_ladder_is_bitwise_identical_across_thread_counts() {
    let mut cfg = XbarConfig::functional(0.05);
    cfg.guard = Some(GuardPolicy::standard());
    cfg.tile_rows = 16;
    cfg.tile_cols = 16;
    cfg.noise.device.on_off_ratio = 20.0;
    let w = pm1_matrix(16, 32, 61);
    let x = pm1_matrix(4, 32, 62);
    let train = dense_twin(&Thermometer::new(8).unwrap().encode_tensor(&x).unwrap());

    let run_guarded = |threads: usize| {
        let mut cfg = cfg;
        cfg.exec = ExecOptions {
            max_threads: threads,
            samples_per_thread: 1,
        };
        let mut rng = Rng::from_seed(63);
        let mut engine = CrossbarLinear::program(&w, &cfg, &mut rng).unwrap();
        assert!(engine.packed_ready(), "rails fixture must pack");
        // a burst of stuck-off cells: each shifts its column checksum by
        // ~1 per pulse, far outside the 6σ tolerance at σ = 0.05
        for k in 0..12 {
            engine
                .inject_fault(2 * k + 1, k, CellSide::Pos, CellHealth::StuckOff)
                .unwrap();
        }
        let (y, stats) = engine.execute_guarded(&train, &mut rng).unwrap();
        (y.as_slice().to_vec(), stats, engine.is_degraded())
    };
    let (y1, s1, d1) = run_guarded(1);
    assert!(s1.guard.violations > 0, "{:?}", s1.guard);
    assert!(
        s1.guard.tile_remaps > 0,
        "persistent faults must escalate past retry/refresh: {:?}",
        s1.guard
    );
    assert!(!d1, "remap should repair this fixture");
    let (y4, s4, d4) = run_guarded(4);
    assert_eq!(y1, y4, "packed ladder outputs diverged at 4 threads");
    assert_eq!(s1, s4, "packed ladder stats diverged at 4 threads");
    assert_eq!(d1, d4);
}
