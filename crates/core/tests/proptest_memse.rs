//! Property-based validation of the analytic MemSE variance model
//! (`membit-core::memse`, DESIGN §14).
//!
//! Two contracts:
//!
//! 1. **Engine-level exactness** — the closed-form per-column
//!    fluctuating variance `a_j/q` read off [`VarianceStats`] must match
//!    paired Monte-Carlo crossbar executions within statistical error,
//!    across sampled noise levels, device models, ADC settings, tiling,
//!    physical non-idealities (temperature, IR drop), and pulse counts.
//!    This is the foundation the network walk composes; it carries no
//!    moment-closure approximation, so the band here is tight (z·SE plus
//!    a small f32/model tolerance), unlike the network-level band in
//!    `repro bench_memse` which absorbs documented composition error.
//! 2. **Determinism** — the analytic scorer is pure `f32` arithmetic:
//!    captures of the same deployment under different host thread caps
//!    must score bitwise identically, and a deployment whose encoding is
//!    reconfigured between batches replays bitwise.
//! 3. **Search** — the analytic scorer plugged into the GBO trainer
//!    selects exactly what the raw analytic search selects, the per-tile
//!    refinement never regresses the uniform objective, and at the
//!    smoke size of `repro bench_memse` the analytic search (capture
//!    included) runs at least 10× faster than one Monte-Carlo epoch.

use std::time::Instant;

use membit_core::{
    calibrate_noise, DeploymentPolicy, DeviceEvalConfig, DeviceVgg, GboConfig, GboTrainer,
    MemseNetwork, MemseScore,
};
use membit_data::{synth_cifar, SynthCifarConfig};
use membit_encoding::pla::PlaThermometer;
use membit_encoding::BitEncoder;
use membit_nn::{Params, Vgg, VggConfig};
use membit_tensor::{Rng, RngStream, Tensor};
use membit_xbar::{CrossbarLinear, ExecOptions, NonIdealitySpec, XbarConfig};
use proptest::prelude::*;

/// A randomly initialized tiny VGG (3 crossbar layers, 8×8 inputs).
fn tiny_vgg(seed: u64) -> (Vgg, Params) {
    let mut params = Params::new();
    let vgg = Vgg::new(&VggConfig::tiny(), &mut params, &mut Rng::from_seed(seed)).unwrap();
    (vgg, params)
}

fn tiny_probe(n: usize) -> Tensor {
    Tensor::from_fn(&[n, 3, 8, 8], |i| ((i % 17) as f32 / 8.0 - 1.0) * 0.9)
}

fn deploy_tiny(
    vgg: &Vgg,
    params: &Params,
    xbar: XbarConfig,
    pulses: Vec<usize>,
    seed: u64,
) -> DeviceVgg {
    let cfg = DeviceEvalConfig {
        xbar,
        pulses,
        act_levels: 9,
        policy: DeploymentPolicy::default(),
    };
    DeviceVgg::deploy(vgg, params, &cfg, &mut Rng::from_seed(seed)).unwrap()
}

/// Closed-form fluctuating variance of one engine at pulse count `q`:
/// `Σ_j a_j/q` with `a_j = T·σ_out² + Σ_T step²/12 + c2c²·Σ(G⁺²+G⁻²)`.
fn analytic_fluct(engine: &CrossbarLinear, q: usize, samples: usize) -> f64 {
    let stats = engine.variance_stats();
    let adc_var: f32 = stats.adc_steps.iter().map(|s| s * s / 12.0).sum();
    let c2c = stats.c2c_sigma_over_denom;
    let base = stats.row_tiles as f32 * stats.output_sigma * stats.output_sigma + adc_var;
    stats
        .col_gsq
        .iter()
        .map(|&gsq| f64::from(base + c2c * c2c * gsq) / q as f64)
        .sum::<f64>()
        * samples as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// a_j/q matches paired MC on the real execution path across the
    /// sampled hardware space.
    #[test]
    fn engine_fluct_variance_matches_paired_mc(
        sigma in 0.02f32..0.12,
        q_idx in 0usize..3,
        realistic_sel in 0u8..2,
        nonideal_sel in 0u8..2,
        seed in 0u64..200,
    ) {
        let q = [4usize, 8, 16][q_idx];
        let realistic = realistic_sel == 1;
        let nonideal = nonideal_sel == 1;
        let out = 16usize;
        let inp = 96usize;
        let mut cfg = if realistic {
            XbarConfig::realistic(sigma)
        } else {
            XbarConfig::functional(sigma)
        };
        cfg.tile_rows = 32;
        cfg.tile_cols = 8;
        if nonideal {
            cfg.nonideal = NonIdealitySpec::realistic();
        }
        let mut rng = Rng::from_seed(seed.wrapping_mul(0x9e37).wrapping_add(5));
        let w = Tensor::from_fn(&[out, inp], |i| {
            if (i.wrapping_mul(2654435761)) % 3 == 0 { 1.0 } else { -1.0 }
        });
        let mut engine = CrossbarLinear::program(&w, &cfg, &mut rng).unwrap();
        let samples = 3usize;
        let x = Tensor::from_fn(&[samples, inp], |i| ((i % 9) as f32 / 4.0 - 1.0) * 0.8);
        let train = PlaThermometer::new(9, q).unwrap().encode_tensor(&x).unwrap();
        // paired MC: E‖y_a − y_b‖²/2 estimates the total fluctuating
        // variance; persistent programming error cancels in each pair
        let pairs = 16usize;
        let mut ests = Vec::with_capacity(pairs);
        for _ in 0..pairs {
            let (a, _) = engine.execute_guarded(&train, &mut rng).unwrap();
            let (b, _) = engine.execute_guarded(&train, &mut rng).unwrap();
            let d2: f64 = a
                .as_slice()
                .iter()
                .zip(b.as_slice())
                .map(|(&x, &y)| f64::from(x - y) * f64::from(x - y))
                .sum();
            ests.push(d2 / 2.0);
        }
        let mc: f64 = ests.iter().sum::<f64>() / pairs as f64;
        let var_est: f64 =
            ests.iter().map(|e| (e - mc) * (e - mc)).sum::<f64>() / (pairs - 1) as f64;
        let se = (var_est / pairs as f64).sqrt();
        let analytic = analytic_fluct(&engine, q, samples);
        // 5σ statistical band + 6% model/f32 tolerance
        let band = 5.0 * se + 0.06 * mc;
        prop_assert!(
            (analytic - mc).abs() <= band,
            "σ={sigma} q={q} realistic={realistic} nonideal={nonideal}: \
             analytic {analytic:.4} vs mc {mc:.4} ± {se:.4}"
        );
    }

    /// The analytic scorer is bitwise identical no matter how many host
    /// threads the underlying deployment executes with.
    #[test]
    fn analytic_score_is_bitwise_identical_across_thread_counts(
        seed in 0u64..100,
        threads in 2usize..8,
    ) {
        let mut params = Params::new();
        let mut rng = Rng::from_seed(7);
        let vgg = Vgg::new(&VggConfig::tiny(), &mut params, &mut rng).unwrap();
        let probe = Tensor::from_fn(&[2, 3, 8, 8], |i| ((i % 17) as f32 / 8.0 - 1.0) * 0.9);
        let score_with = |exec: ExecOptions| {
            let mut xbar = XbarConfig::functional(0.08);
            xbar.tile_rows = 32;
            xbar.tile_cols = 8;
            xbar.exec = exec;
            let cfg = DeviceEvalConfig {
                xbar,
                pulses: vec![8; 3],
                act_levels: 9,
                policy: DeploymentPolicy::default(),
            };
            let mut deploy_rng = Rng::from_seed(seed);
            let device = DeviceVgg::deploy(&vgg, &params, &cfg, &mut deploy_rng).unwrap();
            let net = MemseNetwork::from_device(&device, &probe).unwrap();
            let s = net.score(&[4, 12, 8]).unwrap();
            let sel = net.analytic_search(&[4, 8, 16], 1e-4).unwrap();
            (s.mse.to_bits(), s.fluct_mse.to_bits(), sel.pulses, sel.mse.to_bits())
        };
        let single = score_with(ExecOptions::with_threads(1));
        let multi = score_with(ExecOptions::with_threads(threads));
        prop_assert_eq!(single, multi);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Refining the uniform analytic selection per column-tile group
    /// never raises the objective.
    #[test]
    fn tile_allocation_never_regresses_the_uniform_objective(
        seed in 0u64..100,
        gamma_exp in 2.0f32..5.0,
        tile_cols in 4usize..9,
    ) {
        let (vgg, params) = tiny_vgg(seed);
        let mut xbar = XbarConfig::realistic(0.08);
        xbar.tile_cols = tile_cols;
        let device = deploy_tiny(&vgg, &params, xbar, vec![8; 3], seed + 1);
        let net = MemseNetwork::from_device(&device, &tiny_probe(2)).unwrap();
        let gamma = 10f32.powf(-gamma_exp);
        let candidates = [4usize, 8, 16];
        let uniform = net.analytic_search(&candidates, gamma).unwrap();
        let tiled = net.tile_allocation(&candidates, gamma).unwrap();
        prop_assert!(
            tiled.objective <= uniform.objective + 1e-6,
            "per-group refinement regressed the uniform objective: {} > {}",
            tiled.objective,
            uniform.objective
        );
    }

    /// Both captures read one lowering of the network: a functional
    /// deployment (ideal devices, every layer in one row tile) captured
    /// from the device scores every pulse map bitwise like the
    /// functional capture of the same VGG at the same σ, and the two
    /// searches select alike.
    #[test]
    fn device_and_functional_captures_agree_bitwise(
        seed in 0u64..100,
        sigma in 0.02f32..0.3,
    ) {
        let (vgg, params) = tiny_vgg(seed);
        let probe = tiny_probe(2);
        let device = deploy_tiny(&vgg, &params, XbarConfig::functional(sigma), vec![8; 3], seed + 1);
        let deployed = MemseNetwork::from_device(&device, &probe).unwrap();
        let functional = MemseNetwork::from_vgg(&vgg, &params, &probe, &[sigma; 3]).unwrap();
        let bits = |s: MemseScore| (s.mse.to_bits(), s.fluct_mse.to_bits(), s.disagreement.to_bits());
        for pulses in [[8usize, 8, 8], [4, 12, 16]] {
            prop_assert_eq!(
                bits(deployed.score(&pulses).unwrap()),
                bits(functional.score(&pulses).unwrap())
            );
        }
        let candidates = [4usize, 8, 12, 16];
        prop_assert_eq!(
            deployed.analytic_search(&candidates, 1e-3).unwrap(),
            functional.analytic_search(&candidates, 1e-3).unwrap()
        );
    }

    /// The analytic scorer plumbed through the GBO trainer reproduces the
    /// raw analytic selection.
    #[test]
    fn analytic_scorer_reproduces_the_raw_analytic_selection(
        seed in 0u64..100,
        gamma_exp in 2.0f32..5.0,
    ) {
        let (mut vgg, params) = tiny_vgg(seed);
        let data = SynthCifarConfig { num_classes: 4, ..SynthCifarConfig::tiny() };
        let (train, _) = synth_cifar(&data, seed).unwrap();
        let calibration = calibrate_noise(&mut vgg, &params, &train, 16, 2, 14.0).unwrap();
        let sigma_abs = calibration.sigma_abs(15.0);
        let net = MemseNetwork::from_vgg(&vgg, &params, &tiny_probe(2), &sigma_abs).unwrap();
        let cfg = GboConfig::paper(10f32.powf(-gamma_exp), seed);
        let raw = net.analytic_search(&cfg.pulse_lengths(), cfg.gamma).unwrap();
        let scored = GboTrainer::new(3, cfg).unwrap().search_analytic(&net).unwrap();
        prop_assert_eq!(scored.selected_pulses, raw.pulses);
    }
}

/// A deployment whose encoding swaps between batches replays bitwise
/// from the same seeds.
#[test]
fn reconfigured_sessions_replay_bitwise() {
    let (vgg, params) = tiny_vgg(9);
    let probe = tiny_probe(2);
    let session = || {
        let mut device = deploy_tiny(
            &vgg,
            &params,
            XbarConfig::functional(0.08),
            vec![8, 12, 6],
            10,
        );
        let mut rng = Rng::from_seed(11);
        let mut bits = Vec::new();
        for i in 0..6 {
            let enc: &[usize] = if i % 2 == 0 { &[16; 3] } else { &[8, 12, 6] };
            device.reconfigure_encoding(enc).unwrap();
            let (y, _) = device.forward(&probe, &mut rng).unwrap();
            bits.extend(y.as_slice().iter().map(|v| v.to_bits()));
        }
        bits
    };
    assert_eq!(
        session(),
        session(),
        "reconfigured sessions must replay bitwise"
    );
}

/// At the smoke size of `repro bench_memse` — the quick VGG9 and its
/// 2000 training images, one Monte-Carlo epoch, a two-sample probe —
/// the analytic search (capture included) runs at least 10× faster than
/// the Monte-Carlo one. The floor is wall clock: the untrained weights
/// cost what trained ones cost.
#[test]
fn analytic_search_is_ten_times_faster_than_mc_at_smoke_size() {
    let seed = 2022u64;
    let data = SynthCifarConfig {
        train_per_class: 200,
        test_per_class: 1,
        ..SynthCifarConfig::default_experiment()
    };
    let (train, test) = synth_cifar(&data, seed).unwrap();
    let mut params = Params::new();
    let mut vgg = Vgg::new(
        &VggConfig::small(),
        &mut params,
        &mut Rng::from_seed(seed).stream(RngStream::Init),
    )
    .unwrap();
    let calibration = calibrate_noise(&mut vgg, &params, &train, 100, 4, 14.0).unwrap();
    let sigma = 15.0;
    let (probe, _) = test.batch(0, 2).unwrap();
    let layers = vgg.crossbar_layers();
    let mut cfg = GboConfig::paper(1e-3, seed);
    cfg.epochs = 1;

    let t = Instant::now();
    GboTrainer::new(layers, cfg.clone())
        .unwrap()
        .search(&mut vgg, &params, &train, &calibration, sigma)
        .unwrap();
    let mc_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let net = MemseNetwork::from_vgg(&vgg, &params, &probe, &calibration.sigma_abs(sigma)).unwrap();
    GboTrainer::new(layers, cfg)
        .unwrap()
        .search_analytic(&net)
        .unwrap();
    let analytic_secs = t.elapsed().as_secs_f64();
    let speedup = mc_secs / analytic_secs;
    assert!(
        speedup >= 10.0,
        "analytic search must be ≥10x faster (got {speedup:.1}x: MC {mc_secs:.2}s, \
         analytic {analytic_secs:.3}s)"
    );
}
