//! Tests for the snap-error-aware GBO extension (`snap_error_fan_in`).

use membit_core::{calibrate_noise, pretrain, GboConfig, GboTrainer, TrainConfig};
use membit_data::{synth_cifar, SynthCifarConfig};
use membit_nn::{Mlp, MlpConfig, NoNoise, Params};
use membit_tensor::{Rng, RngStream};

fn trained_mlp(seed: u64) -> (Mlp, Params, membit_data::Dataset) {
    let (train, _) = synth_cifar(&SynthCifarConfig::tiny(), seed).expect("data");
    let mut rng = Rng::from_seed(seed).stream(RngStream::Init);
    let mut params = Params::new();
    let mut mlp =
        Mlp::new(&MlpConfig::new(3 * 8 * 8, &[20], 10), &mut params, &mut rng).expect("mlp");
    let cfg = TrainConfig {
        epochs: 10,
        batch_size: 24,
        lr: 2e-2,
        momentum: 0.9,
        weight_decay: 0.0,
        augment_flip: false,
        seed,
    };
    pretrain(&mut mlp, &mut params, &train, &cfg, &mut NoNoise).expect("train");
    (mlp, params, train)
}

#[test]
fn snap_error_fan_in_validates_length() {
    let (mut mlp, params, train) = trained_mlp(3);
    let cal = calibrate_noise(&mut mlp, &params, &train, 24, 2, 14.0).expect("cal");
    let mut cfg = GboConfig::paper(1e-3, 1);
    cfg.epochs = 1;
    cfg.batch_size = 24;
    cfg.snap_error_fan_in = Some(vec![100.0, 100.0]); // model has 1 layer
    let mut trainer = GboTrainer::new(1, cfg).expect("trainer");
    assert!(trainer
        .search(&mut mlp, &params, &train, &cal, 10.0)
        .is_err());
}

#[test]
fn snap_awareness_biases_away_from_lossy_budgets() {
    // With zero crossbar noise and an *amplified* fan-in, the only signal
    // in the mixture is the representation error, made large enough that
    // it unambiguously increases the loss (for realistic fan-ins the
    // effect is second-order and needs the full experiment scale to
    // resolve): exact budgets (8, 16) must dominate the logits over
    // lossy ones (4, 6, 10, 12, 14).
    let (mut mlp, params, train) = trained_mlp(5);
    let cal = calibrate_noise(&mut mlp, &params, &train, 24, 2, 14.0).expect("cal");
    let mut cfg = GboConfig::paper(0.0, 2);
    cfg.epochs = 4;
    cfg.batch_size = 24;
    cfg.lr = 0.2;
    cfg.snap_error_fan_in = Some(vec![1e5]);
    let mut trainer = GboTrainer::new(1, cfg).expect("trainer");
    // σ = 0: pure snap-error signal
    let result = trainer
        .search(&mut mlp, &params, &train, &cal, 0.0)
        .expect("search");
    let selected = result.selected_pulses[0];
    assert!(
        selected.is_multiple_of(8),
        "snap-aware search with no noise picked lossy budget {selected}; λ = {:?}",
        result.lambdas[0]
    );
    // every lossy budget must rank below both exact ones
    let lam = &result.lambdas[0];
    let exact_min = lam[2].min(lam[6]); // Ω indices of 8 and 16 pulses
    for (k, &l) in lam.iter().enumerate() {
        if k != 2 && k != 6 {
            assert!(
                l < exact_min,
                "λ[{k}] = {l} ≥ exact min {exact_min}: {lam:?}"
            );
        }
    }
}

#[test]
fn paper_faithful_config_ignores_snap_error() {
    // With σ = 0 and no snap modelling, every branch's noise is zero and
    // only the latency regularizer acts: the cheapest encoding wins.
    let (mut mlp, params, train) = trained_mlp(7);
    let cal = calibrate_noise(&mut mlp, &params, &train, 24, 2, 14.0).expect("cal");
    let mut cfg = GboConfig::paper(1e-2, 3);
    cfg.epochs = 3;
    cfg.batch_size = 24;
    cfg.lr = 0.2;
    let mut trainer = GboTrainer::new(1, cfg).expect("trainer");
    let result = trainer
        .search(&mut mlp, &params, &train, &cal, 0.0)
        .expect("search");
    assert_eq!(
        result.selected_pulses,
        vec![4],
        "λ = {:?}",
        result.lambdas[0]
    );
}
