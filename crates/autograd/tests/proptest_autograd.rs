//! Property-based tests for the autodiff engine: every differentiable op
//! is validated against central finite differences on random inputs, and
//! structural identities (linearity of the gradient, zero gradient for
//! constants) are checked.

use membit_autograd::{check_gradients, Tape};
use membit_tensor::{Rng, Tensor};
use proptest::prelude::*;

fn small_tensor(shape: &'static [usize]) -> impl Strategy<Value = Tensor> {
    let volume: usize = shape.iter().product();
    prop::collection::vec(-2.0f32..2.0, volume)
        .prop_map(move |data| Tensor::from_vec(data, shape).expect("volume"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn elementwise_chain_gradcheck(x in small_tensor(&[6])) {
        let r = check_gradients(&[x], 1e-3, |tape, vars| {
            let t = tape.tanh(vars[0]);
            let s = tape.mul(t, vars[0])?;
            let n = tape.mul_scalar(s, -1.0);
            let c = tape.constant(Tensor::full(&[6], 0.7));
            let a = tape.add(n, c)?;
            let sum = tape.sum_all(a);
            Ok(tape.mul_scalar(sum, 1.0 / 6.0))
        }).unwrap();
        prop_assert!(r.passes(2e-2), "{r:?}");
    }

    #[test]
    fn matmul_pair_gradcheck(seed in 0u64..200) {
        let mut rng = Rng::from_seed(seed);
        let a = rng.uniform_tensor(&[3, 4], -1.5, 1.5);
        let b = rng.uniform_tensor(&[4, 2], -1.5, 1.5);
        let r = check_gradients(&[a, b], 1e-3, |tape, vars| {
            let m = tape.matmul(vars[0], vars[1])?;
            let t = tape.tanh(m);
            Ok(tape.sum_all(t))
        }).unwrap();
        prop_assert!(r.passes(2e-2), "{r:?}");
    }

    #[test]
    fn matmul_transposed_gradcheck(seed in 0u64..200) {
        let mut rng = Rng::from_seed(seed);
        let x = rng.uniform_tensor(&[3, 5], -1.5, 1.5);
        let w = rng.uniform_tensor(&[4, 5], -1.5, 1.5);
        let r = check_gradients(&[x, w], 1e-3, |tape, vars| {
            let y = tape.matmul_transposed(vars[0], vars[1])?;
            let sum = tape.sum_all(y);
            Ok(tape.mul_scalar(sum, 1.0 / 12.0))
        }).unwrap();
        prop_assert!(r.passes(2e-2), "{r:?}");
    }

    #[test]
    fn softmax_ce_gradcheck(seed in 0u64..200) {
        let mut rng = Rng::from_seed(seed);
        let logits = rng.uniform_tensor(&[3, 4], -2.0, 2.0);
        let labels: Vec<usize> = (0..3).map(|_| rng.below(4)).collect();
        let r = check_gradients(&[logits], 1e-3, move |tape, vars| {
            tape.softmax_cross_entropy(vars[0], &labels)
        }).unwrap();
        prop_assert!(r.passes(2e-2), "{r:?}");
    }

    #[test]
    fn batch_norm_gradcheck(seed in 0u64..100) {
        let mut rng = Rng::from_seed(seed);
        let x = rng.uniform_tensor(&[4, 3], -2.0, 2.0);
        let gamma = rng.uniform_tensor(&[3], 0.5, 1.5);
        let beta = rng.uniform_tensor(&[3], -0.5, 0.5);
        let labels = vec![0usize, 1, 2, 0];
        let r = check_gradients(&[x, gamma, beta], 1e-2, move |tape, vars| {
            let (y, _, _) = tape.batch_norm(vars[0], vars[1], vars[2], 1e-3)?;
            tape.softmax_cross_entropy(y, &labels)
        }).unwrap();
        prop_assert!(r.passes(5e-2), "{r:?}");
    }

    #[test]
    fn softmax_mixture_gradcheck(seed in 0u64..200) {
        // the GBO path: λ → softmax → mix_noise → CE
        let mut rng = Rng::from_seed(seed);
        let lambda = rng.uniform_tensor(&[4], -1.0, 1.0);
        let x = rng.uniform_tensor(&[2, 3], -1.0, 1.0);
        let eps: Vec<Tensor> = (0..4).map(|_| rng.uniform_tensor(&[2, 3], -0.5, 0.5)).collect();
        let r = check_gradients(&[lambda, x], 1e-3, move |tape, vars| {
            let alpha = tape.softmax1d(vars[0])?;
            let noisy = tape.mix_noise(vars[1], alpha, eps.clone())?;
            let costs = Tensor::from_vec(vec![4.0, 8.0, 12.0, 16.0], &[4]).expect("costs");
            let lat = tape.dot_const(alpha, &costs)?;
            let ce = tape.softmax_cross_entropy(noisy, &[0, 2])?;
            let reg = tape.mul_scalar(lat, 0.03);
            tape.add(ce, reg)
        }).unwrap();
        prop_assert!(r.passes(2e-2), "{r:?}");
    }

    #[test]
    fn constants_never_accumulate_gradients(x in small_tensor(&[4])) {
        let mut tape = Tape::new();
        let v = tape.leaf(x.clone(), true);
        let c = tape.constant(x);
        let prod = tape.mul(v, c).unwrap();
        let loss = tape.sum_all(prod);
        tape.backward(loss).unwrap();
        prop_assert!(tape.grad(v).is_some());
        prop_assert!(tape.grad(c).is_none());
    }

    #[test]
    fn gradient_is_linear_in_upstream_scale(seed in 0u64..200, k in 0.25f32..4.0) {
        // d(k·f)/dx = k·df/dx
        let mut rng = Rng::from_seed(seed);
        let x = rng.uniform_tensor(&[5], -1.0, 1.0);

        let grad_of = |scale: f32, x: &Tensor| -> Tensor {
            let mut tape = Tape::new();
            let v = tape.leaf(x.clone(), true);
            let t = tape.tanh(v);
            let sq = tape.mul(t, t).unwrap();
            let s = tape.sum_all(sq);
            let scaled = tape.mul_scalar(s, scale);
            tape.backward(scaled).unwrap();
            tape.grad(v).unwrap().clone()
        };
        let g1 = grad_of(1.0, &x);
        let gk = grad_of(k, &x);
        prop_assert!(gk.allclose(&g1.mul_scalar(k), 1e-4));
    }

    #[test]
    fn ste_ops_gate_only_on_magnitude(x in small_tensor(&[8])) {
        let mut tape = Tape::new();
        let v = tape.leaf(x.clone(), true);
        let s = tape.sign_ste(v, 1.0);
        let loss = tape.sum_all(s);
        tape.backward(loss).unwrap();
        let g = tape.grad(v).unwrap();
        for (i, &xv) in x.as_slice().iter().enumerate() {
            let expect = if xv.abs() <= 1.0 { 1.0 } else { 0.0 };
            prop_assert_eq!(g.at(i), expect);
        }
    }

    #[test]
    fn max_pool_gradient_routes_to_argmax(seed in 0u64..200) {
        let mut rng = Rng::from_seed(seed);
        let x = rng.uniform_tensor(&[1, 1, 4, 4], -3.0, 3.0);
        let r = check_gradients(&[x], 1e-3, |tape, vars| {
            let p = tape.max_pool2d(vars[0], 2)?;
            let t = tape.tanh(p);
            Ok(tape.sum_all(t))
        }).unwrap();
        prop_assert!(r.passes(2e-2), "{r:?}");
    }
}
