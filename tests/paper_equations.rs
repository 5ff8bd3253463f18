//! Cross-crate validation of the paper's equations: the closed forms in
//! `membit-encoding` (Eqs. 2–4), the Monte-Carlo behaviour of the
//! device-level `membit-xbar` engine, and the functional hooks in
//! `membit-core` must all agree.

use membit_autograd::Tape;
use membit_core::{GaussianMvmNoise, PlaHook};
use membit_encoding::variance::{
    bit_slicing_variance, scaled_thermometer_variance, thermometer_variance,
};
use membit_encoding::{BitEncoder, BitSlicing, Thermometer};
use membit_nn::MvmNoiseHook;
use membit_tensor::{Rng, RngStream, Tensor};
use membit_xbar::{CrossbarLinear, XbarConfig};

/// Empirical variance of engine outputs around the clean value.
fn xbar_variance(encoder: &impl BitEncoder, sigma: f32, trials: usize, seed: u64) -> f64 {
    let mut rng = Rng::from_seed(seed).stream(RngStream::Noise);
    let w = Tensor::ones(&[1, 4]);
    let xbar =
        CrossbarLinear::program(&w, &XbarConfig::functional(sigma), &mut rng).expect("program");
    let x = Tensor::zeros(&[1, 4]);
    let train = encoder.encode_tensor(&x).expect("encode");
    let clean: f32 = train
        .decode()
        .expect("decode")
        .matmul(&w.transpose().expect("t"))
        .expect("mm")
        .at(0);
    let samples: Vec<f64> = (0..trials)
        .map(|_| f64::from(xbar.execute(&train, &mut rng).expect("exec").at(0) - clean))
        .collect();
    let mean = samples.iter().sum::<f64>() / trials as f64;
    samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / trials as f64
}

#[test]
fn eq2_bit_slicing_closed_form_matches_device_level() {
    for bits in [2usize, 3, 4] {
        let sigma = 1.5f32;
        let closed = bit_slicing_variance(bits, f64::from(sigma) * f64::from(sigma));
        let enc = BitSlicing::new(bits).expect("enc");
        // the trait's generic formula agrees with the closed form
        assert!((f64::from(enc.noise_variance(sigma * sigma)) - closed).abs() < 1e-5);
        let empirical = xbar_variance(&enc, sigma, 4000, bits as u64);
        assert!(
            (empirical - closed).abs() < 0.2 * closed + 0.02,
            "bits {bits}: empirical {empirical} vs closed {closed}"
        );
    }
}

#[test]
fn eq3_thermometer_closed_form_matches_device_level() {
    for pulses in [4usize, 8, 12] {
        let sigma = 1.5f32;
        let closed = thermometer_variance(pulses, f64::from(sigma) * f64::from(sigma));
        let enc = Thermometer::new(pulses).expect("enc");
        assert!((f64::from(enc.noise_variance(sigma * sigma)) - closed).abs() < 1e-5);
        let empirical = xbar_variance(&enc, sigma, 4000, pulses as u64);
        assert!(
            (empirical - closed).abs() < 0.2 * closed + 0.02,
            "pulses {pulses}: empirical {empirical} vs closed {closed}"
        );
    }
}

#[test]
fn eq4_functional_hook_matches_scaled_variance() {
    // The GaussianMvmNoise hook used during evaluation must deliver the
    // σ²/(n·p) variance of Eq. 4.
    let sigma = 6.0f32;
    for (scale, pulses) in [(0.5f64, 4usize), (1.0, 8), (2.0, 16)] {
        let expect = scaled_thermometer_variance(8, scale, f64::from(sigma * sigma));
        let mut hook =
            GaussianMvmNoise::uniform(1, sigma, pulses, Rng::from_seed(3).stream(RngStream::Noise))
                .expect("hook");
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[60_000]));
        let y = hook.apply(&mut tape, 0, x).expect("apply");
        let measured = f64::from(tape.value(y).variance());
        assert!(
            (measured - expect).abs() < 0.05 * expect + 0.01,
            "n={scale}: measured {measured} vs {expect}"
        );
    }
}

#[test]
fn thermometer_beats_bit_slicing_on_hardware_at_equal_bits() {
    // Fig. 1(b)'s conclusion, verified on the device-level engine.
    let sigma = 2.0f32;
    for bits in [2usize, 3] {
        let bs = BitSlicing::new(bits).expect("bs");
        let tc = Thermometer::new((1 << bits) - 1).expect("tc");
        let v_bs = xbar_variance(&bs, sigma, 3000, 10 + bits as u64);
        let v_tc = xbar_variance(&tc, sigma, 3000, 20 + bits as u64);
        assert!(
            v_tc < v_bs,
            "bits {bits}: thermometer {v_tc} !< bit-slicing {v_bs}"
        );
    }
}

#[test]
fn pla_snap_error_is_negligible_at_table1_grid() {
    // §III-B: the PLA approximation error must be small — the paper
    // claims the induced accuracy loss is negligible; here we bound the
    // representation error itself.
    use membit_encoding::pla::PlaThermometer;
    for q in [10usize, 12, 14, 16] {
        let pla = PlaThermometer::new(9, q).expect("pla");
        // worst case ≤ half an output step = 1/q
        assert!(pla.max_representation_error() <= 1.0 / q as f32 + 1e-6);
        // mean error well under one source quantization step (0.25)
        assert!(pla.mean_representation_error() < 0.08, "q = {q}");
    }
}

#[test]
fn pla_hook_is_transparent_at_exact_budget() {
    // q = 8 with 9-level activations: encode must be the identity and the
    // only effect is σ²/8 noise.
    let mut hook =
        PlaHook::uniform(1, 8, 0.0, 9, Rng::from_seed(5).stream(RngStream::Noise)).expect("hook");
    let mut tape = Tape::new();
    let x = tape.constant(Tensor::from_vec(vec![0.25, -0.75, 1.0], &[3]).expect("t"));
    let e = hook.encode(&mut tape, 0, x).expect("encode");
    assert_eq!(e, x);
    let a = hook.apply(&mut tape, 0, e).expect("apply");
    assert_eq!(a, e); // σ = 0 ⇒ identity
}
