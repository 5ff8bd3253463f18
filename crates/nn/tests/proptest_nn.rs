//! Property-based tests for the NN stack: layer shape contracts,
//! optimizer descent on random quadratics, schedule monotonicity, and
//! checkpoint round-trips of random parameter sets.

use membit_autograd::Tape;
use membit_nn::{
    accuracy, load_params, save_params, Adam, BatchNorm, Linear, Optimizer, Params, Phase, Sgd,
    StepLr,
};
use membit_tensor::{Rng, Tensor};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn linear_output_shape_contract(
        batch in 1usize..6, inp in 1usize..10, out in 1usize..10, seed in 0u64..100
    ) {
        let mut rng = Rng::from_seed(seed);
        let mut params = Params::new();
        let lin = Linear::new("l", inp, out, true, false, &mut params, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[batch, inp]));
        let mut binding = params.binding();
        let y = lin.forward(&mut tape, &params, &mut binding, x).unwrap();
        prop_assert_eq!(tape.value(y).shape(), &[batch, out]);
    }

    #[test]
    fn binary_linear_deployed_weights_are_pm1(
        inp in 1usize..12, out in 1usize..12, seed in 0u64..100
    ) {
        let mut rng = Rng::from_seed(seed);
        let mut params = Params::new();
        let lin = Linear::new("l", inp, out, false, true, &mut params, &mut rng);
        let dep = lin.deployed_weight(&params);
        prop_assert!(dep.as_slice().iter().all(|&v| v == 1.0 || v == -1.0));
    }

    #[test]
    fn batchnorm_train_output_is_normalized(seed in 0u64..200, c in 1usize..5) {
        let mut rng = Rng::from_seed(seed);
        let mut params = Params::new();
        let mut bn = BatchNorm::new("bn", c, &mut params);
        let x = rng.uniform_tensor(&[8, c, 3], -10.0, 10.0);
        let mut tape = Tape::new();
        let xv = tape.constant(x);
        let mut binding = params.binding();
        let y = bn.forward(&mut tape, &params, &mut binding, xv, Phase::Train).unwrap();
        let out = tape.value(y);
        let means = out.mean_channels().unwrap();
        let vars = out.var_channels().unwrap();
        for ci in 0..c {
            prop_assert!(means.at(ci).abs() < 1e-2, "mean {}", means.at(ci));
            prop_assert!((vars.at(ci) - 1.0).abs() < 0.05, "var {}", vars.at(ci));
        }
    }

    #[test]
    fn sgd_descends_on_random_quadratic(seed in 0u64..500, lr in 0.01f32..0.2) {
        let mut rng = Rng::from_seed(seed);
        let target = rng.uniform_tensor(&[4], -3.0, 3.0);
        let start = rng.uniform_tensor(&[4], -3.0, 3.0);
        let mut params = Params::new();
        let id = params.register("theta", start.clone());
        let mut opt = Sgd::new(lr, 0.0, 0.0);
        let loss_at = |p: &Tensor| p.sub(&target).unwrap().square().sum();
        let before = loss_at(&start);
        for _ in 0..5 {
            let mut tape = Tape::new();
            let mut binding = params.binding();
            let theta = params.bind(&mut tape, &mut binding, id);
            let t = tape.constant(target.neg());
            let d = tape.add(theta, t).unwrap();
            let sq = tape.mul(d, d).unwrap();
            let loss = tape.sum_all(sq);
            tape.backward(loss).unwrap();
            opt.step(&mut params, &tape, &binding).unwrap();
        }
        let after = loss_at(params.get(id));
        prop_assert!(after <= before + 1e-5, "loss {before} → {after}");
    }

    #[test]
    fn adam_descends_on_random_quadratic(seed in 0u64..500) {
        let mut rng = Rng::from_seed(seed);
        let target = rng.uniform_tensor(&[3], -2.0, 2.0);
        let start = rng.uniform_tensor(&[3], -2.0, 2.0);
        let mut params = Params::new();
        let id = params.register("theta", start.clone());
        let mut opt = Adam::new(0.1);
        let loss_at = |p: &Tensor| p.sub(&target).unwrap().square().sum();
        let before = loss_at(&start);
        for _ in 0..30 {
            let mut tape = Tape::new();
            let mut binding = params.binding();
            let theta = params.bind(&mut tape, &mut binding, id);
            let t = tape.constant(target.neg());
            let d = tape.add(theta, t).unwrap();
            let sq = tape.mul(d, d).unwrap();
            let loss = tape.sum_all(sq);
            tape.backward(loss).unwrap();
            opt.step(&mut params, &tape, &binding).unwrap();
        }
        let after = loss_at(params.get(id));
        prop_assert!(after < before || before < 1e-6, "loss {before} → {after}");
    }

    #[test]
    fn step_lr_is_monotone_nonincreasing(
        base in 1e-4f32..1.0,
        factor in 0.05f32..0.9,
        m1 in 1usize..20,
        gap in 1usize..20,
    ) {
        let s = StepLr::new(base, factor, vec![m1, m1 + gap]);
        let mut prev = f32::INFINITY;
        for epoch in 0..(m1 + 2 * gap + 2) {
            let lr = s.lr_at(epoch);
            prop_assert!(lr <= prev + 1e-9);
            prop_assert!(lr > 0.0);
            prev = lr;
        }
    }

    #[test]
    fn accuracy_bounded_and_exact_on_onehot(n in 1usize..20, k in 2usize..6, seed in 0u64..100) {
        let mut rng = Rng::from_seed(seed);
        let labels: Vec<usize> = (0..n).map(|_| rng.below(k)).collect();
        // logits = perfect one-hot of the labels
        let mut logits = Tensor::zeros(&[n, k]);
        for (i, &y) in labels.iter().enumerate() {
            logits.set(&[i, y], 10.0);
        }
        prop_assert_eq!(accuracy(&logits, &labels).unwrap(), 1.0);
        // shifting all logits equally changes nothing
        let shifted = logits.map(|v| v + 3.0);
        prop_assert_eq!(accuracy(&shifted, &labels).unwrap(), 1.0);
    }

    #[test]
    fn checkpoint_roundtrip_random_params(seed in 0u64..500, count in 1usize..5) {
        let mut rng = Rng::from_seed(seed);
        let mut params = Params::new();
        for i in 0..count {
            let rank = 1 + rng.below(3);
            let shape: Vec<usize> = (0..rank).map(|_| 1 + rng.below(4)).collect();
            params.register(format!("p{i}"), rng.uniform_tensor(&shape, -5.0, 5.0));
        }
        let path = std::env::temp_dir().join(format!(
            "membit-proptest-{}-{seed}-{count}.ckpt",
            std::process::id()
        ));
        save_params(&path, &params, &[]).unwrap();
        let loaded = load_params(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(loaded.len(), count);
        for (name, tensor) in loaded {
            let id = params.find(&name).unwrap();
            prop_assert_eq!(params.get(id), &tensor);
        }
    }
}
