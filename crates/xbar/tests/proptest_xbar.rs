//! Property-based tests for the crossbar simulator: tiling invariance,
//! ADC monotonicity/boundedness, device-model conservation laws,
//! linearity of the ideal engine, and typed rejection of extreme
//! configurations.

use membit_encoding::{BitEncoder, Thermometer};
use membit_tensor::{Rng, Tensor, TensorError};
use membit_xbar::{
    Adc, CrossbarLinear, DeviceModel, GuardPolicy, NoiseSpec, NonIdealitySpec, Tile, XbarConfig,
};
use proptest::prelude::*;

fn pm1_matrix(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = Rng::from_seed(seed);
    Tensor::from_fn(&[rows, cols], |_| if rng.coin(0.5) { 1.0 } else { -1.0 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn adc_is_monotone_and_bounded(bits in 1u32..12, range in 0.5f32..100.0, a in -200.0f32..200.0, b in -200.0f32..200.0) {
        let adc = Adc::new(bits, range).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(adc.convert(lo) <= adc.convert(hi));
        let q = adc.convert(a);
        prop_assert!(q.abs() <= range + 1e-4);
        // in-range values are within half a step
        if a.abs() < range {
            prop_assert!((q - a).abs() <= adc.max_quantization_error() + 1e-5);
        }
    }

    #[test]
    fn ideal_tile_mvm_is_linear(seed in 0u64..500) {
        let w = pm1_matrix(6, 4, seed);
        let mut rng = Rng::from_seed(seed + 1);
        let tile = Tile::program(&w, &DeviceModel::ideal(), &mut rng).unwrap();
        let mut rng2 = Rng::from_seed(seed + 2);
        let x1: Vec<f32> = (0..6).map(|_| rng2.uniform(-1.0, 1.0)).collect();
        let x2: Vec<f32> = (0..6).map(|_| rng2.uniform(-1.0, 1.0)).collect();
        let sum: Vec<f32> = x1.iter().zip(&x2).map(|(a, b)| a + b).collect();
        let mut y1 = vec![0.0; 4];
        let mut y2 = vec![0.0; 4];
        let mut ysum = vec![0.0; 4];
        tile.mvm(&x1, &NoiseSpec::none(), &mut rng, &mut y1).unwrap();
        tile.mvm(&x2, &NoiseSpec::none(), &mut rng, &mut y2).unwrap();
        tile.mvm(&sum, &NoiseSpec::none(), &mut rng, &mut ysum).unwrap();
        for j in 0..4 {
            prop_assert!((ysum[j] - y1[j] - y2[j]).abs() < 1e-4);
        }
    }

    #[test]
    fn tiling_is_invariant_for_ideal_hardware(
        seed in 0u64..200,
        tile_rows in 2usize..10,
        tile_cols in 2usize..10,
    ) {
        let w = pm1_matrix(11, 13, seed);
        let x = Tensor::from_fn(&[2, 13], |i| (i % 9) as f32 / 4.0 - 1.0);
        let train = Thermometer::new(4).unwrap().encode_tensor(&x).unwrap();

        let mut rng1 = Rng::from_seed(seed);
        let whole = CrossbarLinear::program(&w, &XbarConfig::ideal(), &mut rng1).unwrap();
        let y_whole = whole.execute(&train, &mut rng1).unwrap();

        let mut cfg = XbarConfig::ideal();
        cfg.tile_rows = tile_rows;
        cfg.tile_cols = tile_cols;
        let mut rng2 = Rng::from_seed(seed + 7);
        let tiled = CrossbarLinear::program(&w, &cfg, &mut rng2).unwrap();
        let y_tiled = tiled.execute(&train, &mut rng2).unwrap();

        prop_assert!(y_whole.allclose(&y_tiled, 1e-3));
    }

    #[test]
    fn effective_weights_are_exact_without_variation(seed in 0u64..500) {
        let w = pm1_matrix(5, 5, seed);
        let mut rng = Rng::from_seed(seed);
        let tile = Tile::program(&w, &DeviceModel::ideal(), &mut rng).unwrap();
        for i in 0..5 {
            for j in 0..5 {
                prop_assert_eq!(tile.effective_weight(i, j), w.get(&[i, j]));
            }
        }
    }

    #[test]
    fn stats_scale_linearly_with_pulses(seed in 0u64..200, pulses in 1usize..12) {
        let w = pm1_matrix(4, 6, seed);
        let x = Tensor::zeros(&[3, 6]);
        let train = Thermometer::new(pulses).unwrap().encode_tensor(&x).unwrap();
        let mut rng = Rng::from_seed(seed);
        let engine = CrossbarLinear::program(&w, &XbarConfig::ideal(), &mut rng).unwrap();
        let (_, stats) = engine.execute_with_stats(&train, &mut rng).unwrap();
        prop_assert_eq!(stats.pulses, (3 * pulses) as u64);
        prop_assert_eq!(stats.vectors, 3);
        prop_assert_eq!(stats.tile_mvms, (3 * pulses) as u64);
        prop_assert!((stats.pulses_per_vector() - pulses as f64).abs() < 1e-9);
    }

    #[test]
    fn device_programming_respects_stuck_rates(rate in 0.0f32..0.5) {
        let mut device = DeviceModel::ideal();
        device.stuck_on_rate = rate;
        let mut rng = Rng::from_seed(9);
        let trials = 4000;
        let stuck = (0..trials)
            .filter(|_| device.program_cell(false, &mut rng) == device.g_on)
            .count();
        let observed = stuck as f32 / trials as f32;
        prop_assert!((observed - rate).abs() < 0.05, "rate {rate}: observed {observed}");
    }

    #[test]
    fn aging_monotonically_shrinks_weights(
        seed in 0u64..200,
        h1 in 1.0f32..100.0,
        extra in 1.0f32..100.0,
    ) {
        let w = pm1_matrix(3, 3, seed);
        let mut rng = Rng::from_seed(seed);
        let mut tile = Tile::program(&w, &DeviceModel::ideal(), &mut rng).unwrap();
        let fresh = tile.effective_weight(0, 0).abs();
        tile.age(h1, 0.03, 0.0, &mut rng);
        let aged_once = tile.effective_weight(0, 0).abs();
        tile.age(extra, 0.03, 0.0, &mut rng);
        let aged_twice = tile.effective_weight(0, 0).abs();
        prop_assert!(aged_once < fresh);
        prop_assert!(aged_twice < aged_once);
        prop_assert!(aged_twice > 0.0);
    }

    #[test]
    fn ir_drop_attenuation_in_unit_interval(alpha in 0.0f32..0.99, seed in 0u64..200) {
        let mut device = DeviceModel::ideal();
        device.ir_drop_alpha = alpha;
        let w = pm1_matrix(6, 6, seed);
        let mut rng = Rng::from_seed(seed);
        let tile = Tile::program(&w, &device, &mut rng).unwrap();
        // every effective weight is scaled by a factor in (0, 1]
        for i in 0..6 {
            for j in 0..6 {
                let eff = tile.effective_weight(i, j).abs();
                prop_assert!(eff <= 1.0 + 1e-5);
                prop_assert!(eff > 0.0);
            }
        }
        // corner cell (0,0) is untouched, far corner is the most attenuated
        let mut near = [0.0f32; 6];
        let mut x = [0.0f32; 6];
        x[0] = 1.0;
        tile.mvm(&x, &NoiseSpec::none(), &mut rng, &mut near).unwrap();
        prop_assert!((near[0].abs() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn output_noise_variance_scales_with_sigma(sigma in 0.5f32..4.0) {
        let w = Tensor::ones(&[2, 1]);
        let mut rng = Rng::from_seed(11);
        let tile = Tile::program(&w, &DeviceModel::ideal(), &mut rng).unwrap();
        let noise = NoiseSpec::functional(sigma);
        let mut out = [0.0f32; 1];
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        let trials = 3000;
        for _ in 0..trials {
            tile.mvm(&[0.0, 0.0], &noise, &mut rng, &mut out).unwrap();
            sum += f64::from(out[0]);
            sum_sq += f64::from(out[0]) * f64::from(out[0]);
        }
        let mean = sum / trials as f64;
        let var = sum_sq / trials as f64 - mean * mean;
        let expect = f64::from(sigma) * f64::from(sigma);
        prop_assert!((var - expect).abs() < 0.25 * expect, "σ={sigma}: var {var} vs {expect}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Up to three float fields of a guarded realistic deployment set to
    /// NaN, ±∞, a negative value or 0: `program` returns a typed error,
    /// or an engine whose guarded outputs are finite and which serves
    /// from the array rather than the digital fallback. It never panics.
    #[test]
    fn config_extremes_are_rejected_typed_or_run_finite(
        seed in 0u64..1000,
        perturb in prop::collection::vec(
            (
                0usize..14,
                prop::sample::select(vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.5, 0.0]),
            ),
            0..4,
        ),
    ) {
        let mut cfg = XbarConfig::realistic(0.2)
            .with_guard(GuardPolicy::standard())
            .with_nonideal(NonIdealitySpec::realistic());
        cfg.tile_rows = 8;
        cfg.tile_cols = 8;
        let mut wv = cfg.write_verify.unwrap();
        let mut guard = cfg.guard.unwrap();
        let d = &mut cfg.noise.device;
        let fields = [
            &mut cfg.noise.output_sigma, &mut d.g_on, &mut d.on_off_ratio, &mut d.d2d_sigma,
            &mut d.c2c_sigma, &mut d.stuck_on_rate, &mut d.stuck_off_rate, &mut d.ir_drop_alpha,
            &mut wv.tolerance, &mut guard.z, &mut guard.min_tolerance, &mut cfg.nonideal.gwire,
            &mut cfg.nonideal.gload, &mut cfg.nonideal.temperature,
        ];
        for &(field, value) in &perturb {
            *fields[field] = value;
        }
        cfg.write_verify = Some(wv);
        cfg.guard = Some(guard);
        let w = pm1_matrix(6, 12, seed);
        let mut rng = Rng::from_seed(seed);
        match CrossbarLinear::program(&w, &cfg, &mut rng) {
            Err(e) => prop_assert!(matches!(e, TensorError::InvalidArgument(_)), "{:?}", e),
            Ok(mut engine) => {
                let x = Tensor::from_fn(&[2, 12], |i| (i % 5) as f32 / 2.0 - 1.0);
                let train = Thermometer::new(4).unwrap().encode_tensor(&x).unwrap();
                let (y, _) = engine.execute_guarded(&train, &mut rng).unwrap();
                prop_assert!(y.as_slice().iter().all(|v| v.is_finite()), "{:?}", y);
                // a fault-free array never walks the ladder to the end
                prop_assert!(!engine.is_degraded());
            }
        }
    }
}
