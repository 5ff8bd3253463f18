//! Property-based tests for the encoding crate: round-trips, monotonicity
//! in the represented level, variance formulas, PLA error bounds, and
//! `encode_tensor` against per-element `encode_value`.

use membit_encoding::pla::PlaThermometer;
use membit_encoding::{Amplitude, BitEncoder, BitSlicing, Thermometer, TrainKind};
use membit_tensor::{Rng, Tensor};
use proptest::prelude::*;

/// Checks `encode_tensor` bitwise against stacking `encode_value` per
/// element: same pulse count, shapes, weights and every pulse bit (read
/// through `pulse(i)`, which expands count-coded trains). With a
/// non-finite element, both must fail with the first one's error.
fn matches_stacked_values<E: BitEncoder>(enc: &E, x: &Tensor) -> Result<(), TestCaseError> {
    let codes: Result<Vec<Vec<f32>>, _> =
        x.as_slice().iter().map(|&v| enc.encode_value(v)).collect();
    let train = match (enc.encode_tensor(x), codes) {
        (Ok(train), Ok(codes)) => {
            for i in 0..train.num_pulses() {
                let pulse = train.pulse(i);
                prop_assert_eq!(pulse.shape(), x.shape());
                let got: Vec<u32> = pulse.as_slice().iter().map(|v| v.to_bits()).collect();
                let want: Vec<u32> = codes.iter().map(|c| c[i].to_bits()).collect();
                prop_assert_eq!(got, want, "pulse {} differs", i);
            }
            train
        }
        (Err(got), Err(want)) => {
            prop_assert_eq!(got, want);
            return Ok(());
        }
        (got, want) => {
            return Err(TestCaseError::fail(format!(
                "encode_tensor ok={} but encode_value ok={}",
                got.is_ok(),
                want.is_ok()
            )))
        }
    };
    prop_assert_eq!(train.num_pulses(), enc.num_pulses());
    let weights: Vec<f32> = (0..enc.num_pulses()).map(|i| enc.pulse_weight(i)).collect();
    prop_assert_eq!(&*train.weights(), weights.as_slice());
    // thermometer-family trains are stored count-coded
    prop_assert_eq!(train.kind() == TrainKind::NestedUnary, enc.emits_nested_unary());
    Ok(())
}

/// Values every encoder must treat exactly as `encode_value` does: every
/// level of an `n`-level grid for `n ∈ 2..=17` and its negation (PLA ties
/// sit on these for odd pulse counts), ±0, ±1 and out-of-range values,
/// plus `len` random values in `[-1.5, 1.5]` (enough for a larger `len`
/// to span several encode blocks), all shuffled.
fn edge_values(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::from_seed(seed);
    let mut v = vec![0.0, -0.0, 1.0, -1.0, 1.5, -1.5, 7.0, -7.0];
    v.extend([f32::MAX, f32::MIN]);
    for n in 2..=17usize {
        for k in 0..n {
            let level = k as f32 / (n - 1) as f32 * 2.0 - 1.0;
            v.extend([level, -level]);
        }
    }
    v.extend((0..len).map(|_| rng.uniform(-1.5, 1.5)));
    rng.shuffle(&mut v);
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn thermometer_roundtrip_any_level(pulses in 1usize..32, level in 0usize..33) {
        let enc = Thermometer::new(pulses).unwrap();
        let level = level.min(pulses);
        let v = level as f32 / pulses as f32 * 2.0 - 1.0;
        let code = enc.encode_value(v).unwrap();
        let decoded = enc.decode(&code).unwrap();
        prop_assert!((decoded - v).abs() < 1e-5, "p={pulses} level={level}: {decoded} vs {v}");
    }

    #[test]
    fn thermometer_monotone_in_value(pulses in 2usize..24, a in -1.0f32..1.0, b in -1.0f32..1.0) {
        let enc = Thermometer::new(pulses).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(enc.high_count(lo) <= enc.high_count(hi));
    }

    #[test]
    fn bit_slicing_roundtrip_any_level(bits in 1usize..10, level in 0usize..1024) {
        let enc = BitSlicing::new(bits).unwrap();
        let level = level % enc.num_levels();
        let v = level as f32 / (enc.num_levels() - 1) as f32 * 2.0 - 1.0;
        let code = enc.encode_value(v).unwrap();
        prop_assert!((enc.decode(&code).unwrap() - v).abs() < 1e-4);
    }

    #[test]
    fn decode_is_bounded(bits in 1usize..8, v in -2.0f32..2.0) {
        // any encodable value decodes into [-1, 1]
        for enc in [&BitSlicing::new(bits).unwrap() as &dyn BitEncoder,
                    &Thermometer::new(bits + 1).unwrap()] {
            let code = enc.encode_value(v).unwrap();
            let d = enc.decode(&code).unwrap();
            prop_assert!((-1.0 - 1e-6..=1.0 + 1e-6).contains(&d));
        }
    }

    #[test]
    fn noise_variance_positive_and_decreasing_for_thermometer(
        p in 1usize..60, sigma2 in 0.01f32..25.0
    ) {
        let a = Thermometer::new(p).unwrap().noise_variance(sigma2);
        let b = Thermometer::new(p + 1).unwrap().noise_variance(sigma2);
        prop_assert!(a > 0.0);
        prop_assert!(b < a);
        prop_assert!((a - sigma2 / p as f32).abs() < 1e-5);
    }

    #[test]
    fn thermometer_never_loses_to_bit_slicing(bits in 1usize..12, sigma2 in 0.1f32..10.0) {
        let bs = BitSlicing::new(bits).unwrap();
        let tc = Thermometer::new((1usize << bits) - 1).unwrap();
        prop_assert!(tc.noise_variance(sigma2) <= bs.noise_variance(sigma2) + 1e-7);
    }

    #[test]
    fn amplitude_decodes_to_nearest_level(levels in 2usize..64, v in -1.0f32..1.0) {
        let enc = Amplitude::new(levels).unwrap();
        let code = enc.encode_value(v).unwrap();
        let step = 2.0 / (levels - 1) as f32;
        prop_assert!((code[0] - v).abs() <= step / 2.0 + 1e-5);
    }

    #[test]
    fn pla_error_bounded_by_half_output_step(
        levels in 2usize..12, pulses in 1usize..40, k in 0usize..12
    ) {
        let pla = PlaThermometer::new(levels, pulses).unwrap();
        let k = k % levels;
        let v = k as f32 / (levels - 1) as f32 * 2.0 - 1.0;
        let err = (pla.approximate(v) - v).abs();
        prop_assert!(err <= 1.0 / pulses as f32 + 1e-5, "levels={levels} q={pulses} v={v}: err {err}");
    }

    #[test]
    fn pla_bias_bounded_by_midpoint_error(levels in 3usize..11, pulses in 1usize..24) {
        // Sign-directed tie-breaking pairs ±v errors symmetrically, so the
        // only possible net bias comes from the v = 0 midpoint when an odd
        // pulse count cannot represent it (|error| ≤ 1/q). With an even
        // pulse count — the paper's entire search space — the snap is
        // exactly bias-free.
        let pla = PlaThermometer::new(levels, pulses).unwrap();
        let bias: f32 = (0..levels)
            .map(|k| {
                let v = k as f32 / (levels - 1) as f32 * 2.0 - 1.0;
                pla.approximate(v) - v
            })
            .sum();
        prop_assert!(
            bias.abs() <= 1.0 / pulses as f32 + 1e-4,
            "levels={levels} q={pulses}: bias {bias}"
        );
        if pulses % 2 == 0 {
            prop_assert!(bias.abs() < 1e-4, "even q must be bias-free: {bias}");
        }
    }

    #[test]
    fn pla_saturations_always_exact(levels in 2usize..12, pulses in 1usize..40) {
        let pla = PlaThermometer::new(levels, pulses).unwrap();
        prop_assert_eq!(pla.approximate(1.0), 1.0);
        prop_assert_eq!(pla.approximate(-1.0), -1.0);
    }

    #[test]
    fn encode_tensor_decode_roundtrip(pulses in 1usize..16, seed in 0u64..1000) {
        let mut rng = membit_tensor::Rng::from_seed(seed);
        let enc = Thermometer::new(pulses).unwrap();
        // values snapped to the representable grid
        let x = Tensor::from_fn(&[8], |_| {
            let k = rng.below(pulses + 1);
            k as f32 / pulses as f32 * 2.0 - 1.0
        });
        let train = enc.encode_tensor(&x).unwrap();
        prop_assert_eq!(train.num_pulses(), pulses);
        prop_assert!(train.decode().unwrap().allclose(&x, 1e-5));
    }

    #[test]
    fn encode_tensor_matches_stacked_encode_value(
        p in 4usize..17, levels in 2usize..18, len in 0usize..2500, seed in 0u64..1000
    ) {
        let v = edge_values(len, seed);
        let x = Tensor::from_vec(v.clone(), &[v.len()]).unwrap();
        matches_stacked_values(&Thermometer::new(p).unwrap(), &x)?;
        matches_stacked_values(&PlaThermometer::new(levels, p).unwrap(), &x)?;
        matches_stacked_values(&PlaThermometer::new(p + 1, levels).unwrap(), &x)?;
        matches_stacked_values(&BitSlicing::new(p - 3).unwrap(), &x)?;
        matches_stacked_values(&Amplitude::new(levels).unwrap(), &x)?;
        // a 2-D shape of the same values keeps its shape
        let rows = Tensor::from_vec(v[..v.len() / 2 * 2].to_vec(), &[v.len() / 2, 2]).unwrap();
        matches_stacked_values(&PlaThermometer::new(levels, p).unwrap(), &rows)?;
    }

    #[test]
    fn encode_tensor_fails_on_the_first_non_finite_value(
        p in 4usize..17, at in 0usize..3000, seed in 0u64..1000
    ) {
        let mut v = edge_values(2000, seed);
        let at = at % v.len();
        v[at] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][at % 3];
        // a second, later non-finite value must not be the one reported
        let later = v.len() - 1;
        if later > at {
            v[later] = f32::NAN;
        }
        let x = Tensor::from_vec(v, &[1, later + 1]).unwrap();
        matches_stacked_values(&Thermometer::new(p).unwrap(), &x)?;
        matches_stacked_values(&PlaThermometer::new(9, p).unwrap(), &x)?;
        matches_stacked_values(&BitSlicing::new(p - 3).unwrap(), &x)?;
        matches_stacked_values(&Amplitude::new(p).unwrap(), &x)?;
    }

    #[test]
    fn pulse_weights_sum_matches_norm(bits in 1usize..16) {
        let enc = BitSlicing::new(bits).unwrap();
        let manual: f32 = (0..bits).map(|i| enc.pulse_weight(i)).sum();
        prop_assert_eq!(manual, enc.weight_norm());
        prop_assert_eq!(manual, ((1u64 << bits) - 1) as f32);
    }
}
