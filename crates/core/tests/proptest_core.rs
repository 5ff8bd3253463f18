//! Property-based tests for the core GBO machinery: hook variance laws,
//! calibration linearity, GBO selection consistency, and report rendering.

use membit_autograd::Tape;
use membit_core::{GaussianMvmNoise, GboConfig, GboTrainer, NoiseCalibration, PlaHook};
use membit_nn::MvmNoiseHook;
use membit_tensor::{Rng, RngStream, Tensor};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn calibration_sigma_abs_is_linear(
        rms in prop::collection::vec(0.1f32..20.0, 1..8),
        unit in 1.0f32..50.0,
        sigma in 0.0f32..40.0,
    ) {
        let cal = NoiseCalibration::new(rms.clone(), unit).unwrap();
        let once = cal.sigma_abs(sigma);
        let twice = cal.sigma_abs(2.0 * sigma);
        for (a, b) in once.iter().zip(&twice) {
            prop_assert!((2.0 * a - b).abs() < 1e-4);
        }
        for (a, &r) in once.iter().zip(&rms) {
            prop_assert!((a - sigma / unit * r).abs() < 1e-4);
        }
    }

    #[test]
    fn gaussian_hook_noise_std_follows_sqrt_law(
        sigma in 0.5f32..8.0,
        pulses in 1usize..32,
        seed in 0u64..500,
    ) {
        let rng = Rng::from_seed(seed).stream(RngStream::Noise);
        let mut hook = GaussianMvmNoise::uniform(1, sigma, pulses, rng).unwrap();
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[30_000]));
        let y = hook.apply(&mut tape, 0, x).unwrap();
        let measured = tape.value(y).std();
        let expect = sigma / (pulses as f32).sqrt();
        prop_assert!(
            (measured - expect).abs() < 0.05 * expect + 1e-3,
            "σ={sigma} p={pulses}: {measured} vs {expect}"
        );
    }

    #[test]
    fn pla_hook_snap_preserves_exact_budgets(q in 1usize..40, seed in 0u64..200) {
        // whenever q is the base count or a multiple, encode is identity
        let act_levels = 9usize;
        let rng = Rng::from_seed(seed).stream(RngStream::Noise);
        let mut hook = PlaHook::uniform(1, q, 0.0, act_levels, rng).unwrap();
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(vec![0.25, -0.75], &[2]).unwrap());
        let y = hook.encode(&mut tape, 0, x).unwrap();
        if q % (act_levels - 1) == 0 {
            prop_assert_eq!(y, x);
        } else {
            // snapped values stay in [-1, 1] and on the q-grid
            for &v in tape.value(y).as_slice() {
                prop_assert!((-1.0..=1.0).contains(&v));
                let high = (v + 1.0) / 2.0 * q as f32;
                prop_assert!((high - high.round()).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn gbo_config_pulse_lengths_scale_with_omega(
        base in 1usize..16,
        scale_centi in 25usize..300,
    ) {
        let n = scale_centi as f32 / 100.0;
        let cfg = GboConfig {
            omega: vec![n],
            base_pulses: base,
            gamma: 0.0,
            epochs: 1,
            lr: 0.1,
            batch_size: 8,
            seed: 0,
            snap_error_fan_in: None,
        };
        let lengths = cfg.pulse_lengths();
        prop_assert_eq!(lengths.len(), 1);
        prop_assert_eq!(lengths[0], ((n * base as f32).round().max(1.0)) as usize);
    }

    #[test]
    fn gbo_selection_is_argmax_of_lambdas(layers in 1usize..5) {
        // freshly created trainer: all-zero λ selects the first Ω entry
        let trainer = GboTrainer::new(layers, GboConfig::paper(0.0, 0)).unwrap();
        let lambdas = trainer.lambdas();
        prop_assert_eq!(lambdas.len(), layers);
        for lam in &lambdas {
            prop_assert!(lam.iter().all(|&v| v == 0.0));
        }
    }
}
