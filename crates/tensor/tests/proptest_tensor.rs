//! Property-based tests for the tensor substrate: algebraic identities of
//! the elementwise ops, matmul linearity, layout round-trips, reduction
//! consistency, and RNG determinism.

use membit_tensor::{col2im, im2col, Conv2dGeometry, MatmulOptions, Rng, RngStream, Tensor};
use proptest::prelude::*;

/// A small shape: rank 1–3, dims 1–6.
fn shape_strategy() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..6, 1..4)
}

/// A tensor of the given shape with bounded values.
fn tensor_of(shape: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let volume: usize = shape.iter().product();
    prop::collection::vec(-100.0f32..100.0, volume)
        .prop_map(move |data| Tensor::from_vec(data, &shape).expect("volume matches"))
}

fn tensor_strategy() -> impl Strategy<Value = Tensor> {
    shape_strategy().prop_flat_map(tensor_of)
}

fn matrix_strategy(r: std::ops::Range<usize>) -> impl Strategy<Value = Tensor> {
    (r.clone(), r).prop_flat_map(|(m, n)| tensor_of(vec![m, n]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn add_commutes(t in tensor_strategy()) {
        let other = t.map(|v| v * 0.5 - 1.0);
        let ab = t.add(&other).unwrap();
        let ba = other.add(&t).unwrap();
        prop_assert!(ab.allclose(&ba, 1e-6));
    }

    #[test]
    fn add_neg_is_sub(t in tensor_strategy()) {
        let other = t.map(|v| v.sin() * 3.0);
        let direct = t.sub(&other).unwrap();
        let via_neg = t.add(&other.neg()).unwrap();
        prop_assert!(direct.allclose(&via_neg, 1e-5));
    }

    #[test]
    fn mul_by_one_is_identity(t in tensor_strategy()) {
        let ones = Tensor::ones(t.shape());
        prop_assert!(t.mul(&ones).unwrap().allclose(&t, 0.0));
        prop_assert!(t.mul_scalar(1.0).allclose(&t, 0.0));
    }

    #[test]
    fn reshape_roundtrip_preserves_data(t in tensor_strategy()) {
        let flat = t.reshape(&[t.len()]).unwrap();
        let back = flat.reshape(t.shape()).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn double_transpose_is_identity(m in matrix_strategy(1..8)) {
        prop_assert_eq!(m.transpose().unwrap().transpose().unwrap(), m);
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in matrix_strategy(1..6),
        seed in 0u64..1000,
    ) {
        let (rows, cols) = (a.shape()[0], a.shape()[1]);
        let mut rng = Rng::from_seed(seed);
        let b = rng.uniform_tensor(&[cols, 3], -5.0, 5.0);
        let c = rng.uniform_tensor(&[cols, 3], -5.0, 5.0);
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        let _ = rows;
        prop_assert!(lhs.allclose(&rhs, 1e-2));
    }

    #[test]
    fn matmul_scalar_pullout(m in matrix_strategy(1..6), k in -4.0f32..4.0) {
        let other = m.transpose().unwrap();
        let lhs = m.mul_scalar(k).matmul(&other).unwrap();
        let rhs = m.matmul(&other).unwrap().mul_scalar(k);
        prop_assert!(lhs.allclose(&rhs, 1e-1 + 1e-3 * rhs.map(f32::abs).max()));
    }

    #[test]
    fn parallel_matmul_matches_serial(seed in 0u64..500) {
        let mut rng = Rng::from_seed(seed);
        let a = rng.uniform_tensor(&[37, 19], -2.0, 2.0);
        let b = rng.uniform_tensor(&[19, 23], -2.0, 2.0);
        let serial = a.matmul_with(&b, MatmulOptions::serial()).unwrap();
        let parallel = a
            .matmul_with(&b, MatmulOptions { max_threads: 4, rows_per_thread: 4 })
            .unwrap();
        prop_assert!(serial.allclose(&parallel, 1e-4));
    }

    #[test]
    fn sum_axis_agrees_with_total(t in tensor_strategy()) {
        let total: f32 = t.sum();
        let mut reduced = t.clone();
        while reduced.rank() > 1 || reduced.len() > 1 {
            reduced = reduced.sum_axis(0).unwrap();
            if reduced.rank() == 1 && reduced.len() == 1 {
                break;
            }
            if reduced.rank() == 1 {
                reduced = reduced.sum_axis(0).unwrap();
                break;
            }
        }
        prop_assert!((reduced.item() - total).abs() <= 1e-3 * total.abs().max(1.0) * t.len() as f32);
    }

    #[test]
    fn channel_stats_shift_invariance(seed in 0u64..500, shift in -10.0f32..10.0) {
        let mut rng = Rng::from_seed(seed);
        let t = rng.uniform_tensor(&[3, 4, 5], -5.0, 5.0);
        let shifted = t.map(|v| v + shift);
        let var_a = t.var_channels().unwrap();
        let var_b = shifted.var_channels().unwrap();
        prop_assert!(var_a.allclose(&var_b, 1e-2));
        let mean_diff = shifted
            .mean_channels()
            .unwrap()
            .sub(&t.mean_channels().unwrap())
            .unwrap();
        for &d in mean_diff.as_slice() {
            prop_assert!((d - shift).abs() < 1e-3);
        }
    }

    #[test]
    fn nchw_nhwc_roundtrip(seed in 0u64..500) {
        let mut rng = Rng::from_seed(seed);
        let t = rng.uniform_tensor(&[2, 3, 4, 5], -1.0, 1.0);
        prop_assert_eq!(t.nchw_to_nhwc().unwrap().nhwc_to_nchw().unwrap(), t);
    }

    #[test]
    fn im2col_col2im_adjointness(seed in 0u64..200) {
        // ⟨im2col(x), y⟩ = ⟨x, col2im(y)⟩
        let mut rng = Rng::from_seed(seed);
        let geom = Conv2dGeometry::new(2, 5, 5, 3, 3, 1, 1).unwrap();
        let x = rng.uniform_tensor(&[1, 2, 5, 5], -2.0, 2.0);
        let cols = im2col(&x, &geom).unwrap();
        let y = rng.uniform_tensor(cols.shape(), -2.0, 2.0);
        let back = col2im(&y, 1, &geom).unwrap();
        let lhs = cols.dot(&y).unwrap();
        let rhs = x.dot(&back).unwrap();
        prop_assert!((lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0));
    }

    #[test]
    fn rng_streams_reproducible(seed in 0u64..10_000) {
        let a = Rng::from_seed(seed).stream(RngStream::Noise).normal_tensor(&[16], 0.0, 1.0);
        let b = Rng::from_seed(seed).stream(RngStream::Noise).normal_tensor(&[16], 0.0, 1.0);
        prop_assert_eq!(a.clone(), b);
        let c = Rng::from_seed(seed ^ 1).stream(RngStream::Noise).normal_tensor(&[16], 0.0, 1.0);
        prop_assert_ne!(a, c);
    }

    #[test]
    fn clamp_bounds_hold(t in tensor_strategy(), lo in -5.0f32..0.0, width in 0.1f32..5.0) {
        let hi = lo + width;
        let clamped = t.clamp(lo, hi);
        prop_assert!(clamped.min() >= lo - 1e-6);
        prop_assert!(clamped.max() <= hi + 1e-6);
    }

    #[test]
    fn signum_matches_definition(t in tensor_strategy()) {
        for (i, &v) in t.as_slice().iter().enumerate() {
            let s = t.signum().at(i);
            if v > 0.0 { prop_assert_eq!(s, 1.0); }
            else if v < 0.0 { prop_assert_eq!(s, -1.0); }
            else { prop_assert_eq!(s, 0.0); }
        }
    }
}
