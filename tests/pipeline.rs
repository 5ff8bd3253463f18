//! End-to-end integration test: the full paper pipeline at miniature
//! scale — pre-train → calibrate → sensitivity → PLA ladder → GBO search
//! → NIA synergy — exercising every crate together.

use membit_core::{
    calibrate_noise, evaluate, evaluate_with_hook, layer_sensitivity, nia_finetune, pretrain,
    GboConfig, GboTrainer, NiaConfig, PlaHook, TrainConfig,
};
use membit_data::{synth_cifar, SynthCifarConfig};
use membit_nn::{Mlp, MlpConfig, NoNoise, Params};
use membit_tensor::{Rng, RngStream};

struct Setup {
    model: Mlp,
    params: Params,
    train: membit_data::Dataset,
    test: membit_data::Dataset,
}

fn trained_setup(seed: u64) -> Setup {
    // tiny() with more samples: 12/class leaves accuracy hostage to the
    // seed, 30/class trains reliably above chance for any seed
    let data_cfg = SynthCifarConfig {
        train_per_class: 30,
        test_per_class: 10,
        ..SynthCifarConfig::tiny()
    };
    let (train, test) = synth_cifar(&data_cfg, seed).expect("data");
    let mut rng = Rng::from_seed(seed).stream(RngStream::Init);
    let mut params = Params::new();
    let mut model = Mlp::new(
        &MlpConfig::new(3 * 8 * 8, &[28, 20], 10),
        &mut params,
        &mut rng,
    )
    .expect("model");
    let cfg = TrainConfig {
        epochs: 40,
        batch_size: 24,
        lr: 2e-2,
        momentum: 0.9,
        weight_decay: 0.0,
        augment_flip: false,
        seed,
    };
    pretrain(&mut model, &mut params, &train, &cfg, &mut NoNoise).expect("pretrain");
    Setup {
        model,
        params,
        train,
        test,
    }
}

fn noisy_acc(setup: &mut Setup, pulses: &[usize], sigma_abs: &[f32], reps: u64) -> f32 {
    let mut acc = 0.0;
    for rep in 0..reps {
        let mut hook = PlaHook::new(
            pulses.to_vec(),
            sigma_abs.to_vec(),
            9,
            Rng::from_seed(1000 + rep).stream(RngStream::Noise),
        )
        .expect("hook");
        acc += evaluate_with_hook(&mut setup.model, &setup.params, &setup.test, 24, &mut hook)
            .expect("eval");
    }
    acc / reps as f32
}

#[test]
fn full_pipeline_reproduces_paper_shape() {
    let mut setup = trained_setup(42);
    let clean = evaluate(&mut setup.model, &setup.params, &setup.test, 24).expect("clean");
    assert!(clean > 0.35, "clean accuracy too low: {clean}");

    let cal = calibrate_noise(&mut setup.model, &setup.params, &setup.train, 24, 4, 28.0)
        .expect("calibrate");
    assert_eq!(cal.layers(), 2);

    // (1) noise hurts, and hurts more at higher σ
    let sigma_mild = cal.sigma_abs(10.0);
    let sigma_severe = cal.sigma_abs(25.0);
    let acc_mild = noisy_acc(&mut setup, &[8, 8], &sigma_mild, 3);
    let acc_severe = noisy_acc(&mut setup, &[8, 8], &sigma_severe, 3);
    assert!(acc_mild <= clean + 0.05);
    assert!(
        acc_severe < acc_mild + 0.02,
        "severe {acc_severe} should be ≤ mild {acc_mild}"
    );

    // (2) the PLA ladder: more pulses ⇒ better accuracy under fixed noise
    let acc_p4 = noisy_acc(&mut setup, &[4, 4], &sigma_severe, 3);
    let acc_p16 = noisy_acc(&mut setup, &[16, 16], &sigma_severe, 3);
    assert!(
        acc_p16 > acc_p4,
        "16 pulses ({acc_p16}) should beat 4 pulses ({acc_p4})"
    );

    // (3) layer sensitivity exists and returns one entry per layer
    let sens = layer_sensitivity(
        &mut setup.model,
        &setup.params,
        &setup.test,
        &cal.sigma_abs(30.0),
        24,
        2,
        7,
    )
    .expect("sensitivity");
    assert_eq!(sens.len(), 2);
    for &s in &sens {
        assert!(s <= clean + 0.05);
    }

    // (4) GBO search produces a valid heterogeneous configuration
    let mut gbo_cfg = GboConfig::paper(1e-3, 5);
    gbo_cfg.epochs = 3;
    gbo_cfg.batch_size = 24;
    gbo_cfg.lr = 0.1;
    let mut trainer = GboTrainer::new(2, gbo_cfg).expect("trainer");
    let result = trainer
        .search(&mut setup.model, &setup.params, &setup.train, &cal, 25.0)
        .expect("search");
    assert_eq!(result.selected_pulses.len(), 2);
    for &p in &result.selected_pulses {
        assert!((4..=16).contains(&p), "pulse count {p} outside Ω range");
    }
    let acc_gbo = noisy_acc(
        &mut setup,
        &result.selected_pulses.clone(),
        &sigma_severe,
        3,
    );
    // GBO should at least not be worse than the baseline it optimizes
    assert!(
        acc_gbo >= acc_severe - 0.05,
        "GBO {acc_gbo} fell below baseline {acc_severe}"
    );
}

#[test]
fn nia_then_gbo_compose() {
    let mut setup = trained_setup(77);
    let cal = calibrate_noise(&mut setup.model, &setup.params, &setup.train, 24, 4, 28.0)
        .expect("calibrate");
    let sigma = 20.0;
    let before = noisy_acc(&mut setup, &[8, 8], &cal.sigma_abs(sigma), 3);

    nia_finetune(
        &mut setup.model,
        &mut setup.params,
        &setup.train,
        &cal,
        sigma,
        &NiaConfig {
            epochs: 4,
            batch_size: 24,
            lr: 5e-3,
            pulses: 8,
            augment_flip: false,
            seed: 78,
        },
    )
    .expect("nia");
    let cal2 = calibrate_noise(&mut setup.model, &setup.params, &setup.train, 24, 4, 28.0)
        .expect("recalibrate");
    let after = noisy_acc(&mut setup, &[8, 8], &cal2.sigma_abs(sigma), 3);
    assert!(
        after >= before - 0.05,
        "NIA degraded noisy accuracy {before} → {after}"
    );

    // a GBO search still runs fine on the adapted weights
    let mut gbo_cfg = GboConfig::paper(1e-3, 6);
    gbo_cfg.epochs = 2;
    gbo_cfg.batch_size = 24;
    let mut trainer = GboTrainer::new(2, gbo_cfg).expect("trainer");
    let result = trainer
        .search(&mut setup.model, &setup.params, &setup.train, &cal2, sigma)
        .expect("search");
    assert_eq!(result.lambdas.len(), 2);
    assert!(result.epoch_losses.iter().all(|l| l.is_finite()));
}
