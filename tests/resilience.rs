//! Crash-safety integration tests: watchdog recovery from injected NaN
//! faults, typed divergence after bounded retries, and kill-and-resume
//! runs that must reproduce the uninterrupted run bit for bit.

use std::path::PathBuf;

use membit_core::{
    calibrate_noise, pretrain_resilient, DivergenceReason, Experiment, ExperimentConfig, GboConfig,
    GboTrainer, NanFault, ResilienceConfig, TrainConfig, TrainError, MAX_RETRIES,
};
use membit_data::{synth_cifar, Dataset, SynthCifarConfig};
use membit_nn::{Mlp, MlpConfig, NoNoise, Params};
use membit_tensor::{Rng, RngStream, Tensor};

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("membit-res-{tag}-{}.ckpt", std::process::id()))
}

/// Identically seeded model, parameters and data for every run of a test.
fn fresh(seed: u64) -> (Mlp, Params, Dataset) {
    let data_cfg = SynthCifarConfig {
        train_per_class: 6,
        test_per_class: 2,
        ..SynthCifarConfig::tiny()
    };
    let (train, _test) = synth_cifar(&data_cfg, seed).expect("data");
    let mut rng = Rng::from_seed(seed).stream(RngStream::Init);
    let mut params = Params::new();
    let model =
        Mlp::new(&MlpConfig::new(3 * 8 * 8, &[16], 10), &mut params, &mut rng).expect("model");
    (model, params, train)
}

fn train_cfg(epochs: usize, seed: u64) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 16,
        lr: 2e-2,
        momentum: 0.9,
        weight_decay: 0.0,
        augment_flip: true,
        seed,
    }
}

fn params_snapshot(params: &Params) -> Vec<(String, Tensor)> {
    params
        .iter()
        .map(|(n, t)| (n.to_string(), t.clone()))
        .collect()
}

#[test]
fn transient_nan_trips_watchdog_and_recovers() {
    let (mut model, mut params, train) = fresh(7);
    // 60 samples / batch 16 = 4 batches per epoch; pass 2 is mid-epoch 0
    let mut fault = NanFault::once_at(2);
    let report = pretrain_resilient(
        &mut model,
        &mut params,
        &train,
        &train_cfg(2, 7),
        &mut fault,
        &ResilienceConfig::default(),
    )
    .expect("transient fault must be recoverable");
    assert_eq!(report.watchdog_trips, 1);
    assert_eq!(report.epoch_losses.len(), 2);
    assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
}

#[test]
fn persistent_nan_surfaces_typed_divergence() {
    let (mut model, mut params, train) = fresh(7);
    let mut fault = NanFault::always_from(0);
    let err = pretrain_resilient(
        &mut model,
        &mut params,
        &train,
        &train_cfg(2, 7),
        &mut fault,
        &ResilienceConfig::default(),
    )
    .unwrap_err();
    match err {
        TrainError::Diverged {
            stage,
            epoch,
            retries,
            reason,
        } => {
            assert_eq!(stage, "pretrain");
            assert_eq!(epoch, 0);
            assert_eq!(retries, MAX_RETRIES);
            // the injected NaN surfaces through whichever check sees it
            // first: the loss if it propagates, else the gradients (ReLU's
            // `max` can squash a forward NaN that backward still exposes)
            assert!(matches!(
                reason,
                DivergenceReason::NonFiniteLoss | DivergenceReason::NonFiniteGrad
            ));
        }
        other => panic!("expected Diverged, got {other}"),
    }
}

#[test]
fn killed_pretrain_resumes_bitwise_identical() {
    let seed = 11;
    let cfg = train_cfg(4, seed);

    // reference: uninterrupted run
    let (mut model_a, mut params_a, train) = fresh(seed);
    let report_a = pretrain_resilient(
        &mut model_a,
        &mut params_a,
        &train,
        &cfg,
        &mut NoNoise,
        &ResilienceConfig::default(),
    )
    .expect("reference run");

    // "kill" at epoch 2: a persistent fault starting at pass 8 (first
    // batch of epoch 2) aborts the run, leaving the epoch-2 checkpoint
    let path = tmp("pretrain");
    std::fs::remove_file(&path).ok();
    let (mut model_b, mut params_b, _) = fresh(seed);
    let err = pretrain_resilient(
        &mut model_b,
        &mut params_b,
        &train,
        &cfg,
        &mut NanFault::always_from(8),
        &ResilienceConfig::auto(path.clone(), false),
    )
    .unwrap_err();
    match err {
        TrainError::Diverged { stage, epoch, .. } => {
            assert_eq!(stage, "pretrain");
            assert_eq!(epoch, 2);
        }
        other => panic!("expected Diverged at epoch 2, got {other}"),
    }
    assert!(path.exists(), "failed run must leave its checkpoint behind");

    // resume into a fresh process image: new model/params, clean hook
    let (mut model_c, mut params_c, _) = fresh(seed);
    let report_c = pretrain_resilient(
        &mut model_c,
        &mut params_c,
        &train,
        &cfg,
        &mut NoNoise,
        &ResilienceConfig::auto(path.clone(), true),
    )
    .expect("resumed run");

    assert_eq!(report_c.epoch_losses, report_a.epoch_losses);
    assert_eq!(report_c.final_train_acc, report_a.final_train_acc);
    assert_eq!(params_snapshot(&params_c), params_snapshot(&params_a));
    assert!(
        !path.exists(),
        "checkpoint must be cleaned up after success"
    );
}

#[test]
fn killed_gbo_search_resumes_identical_lambda_selections() {
    let seed = 5;
    let paper_sigma = 0.4;
    let gbo4 = GboConfig {
        epochs: 4,
        batch_size: 16,
        ..GboConfig::paper(0.1, seed)
    };

    let run = |epochs: usize, res: &ResilienceConfig| {
        let (mut model, params, train) = fresh(seed);
        let cal = calibrate_noise(&mut model, &params, &train, 16, 2, 4.0).expect("calibration");
        let cfg = GboConfig {
            epochs,
            ..gbo4.clone()
        };
        let mut trainer = GboTrainer::new(model.crossbar_layers(), cfg).expect("trainer");
        trainer
            .search_resilient(&mut model, &params, &train, &cal, paper_sigma, res)
            .expect("search")
    };

    // reference: uninterrupted 4-epoch search
    let result_a = run(4, &ResilienceConfig::default());

    // phase 1: "killed" after 2 epochs — checkpoint deliberately kept
    let path = tmp("gbo");
    std::fs::remove_file(&path).ok();
    run(
        2,
        &ResilienceConfig {
            keep_checkpoint: true,
            ..ResilienceConfig::auto(path.clone(), false)
        },
    );
    assert!(path.exists());

    // phase 2: resume to the full 4 epochs
    let result_c = run(4, &ResilienceConfig::auto(path.clone(), true));

    assert_eq!(result_c.lambdas, result_a.lambdas);
    assert_eq!(result_c.selected_pulses, result_a.selected_pulses);
    assert_eq!(result_c.selected_scale, result_a.selected_scale);
    assert_eq!(result_c.epoch_losses, result_a.epoch_losses);
    assert!(!path.exists());
}

#[test]
fn experiment_work_dir_checkpoints_are_cleaned_up_and_deterministic() {
    let work_dir = std::env::temp_dir().join(format!("membit-res-work-{}", std::process::id()));
    std::fs::remove_dir_all(&work_dir).ok();
    let make_cfg = || {
        let mut cfg = ExperimentConfig::quick(1, 3);
        cfg.data.train_per_class = 4;
        cfg.data.test_per_class = 2;
        cfg.eval_repeats = 1;
        cfg.work_dir = Some(work_dir.clone());
        cfg.resume = true;
        cfg
    };

    let exp1 = Experiment::setup(make_cfg()).expect("first setup");
    let leftovers: Vec<_> = std::fs::read_dir(&work_dir)
        .expect("work dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name())
        .collect();
    assert!(
        leftovers.is_empty(),
        "stage checkpoints must be deleted on success: {leftovers:?}"
    );

    // a rerun (nothing to resume) retrains deterministically
    let exp2 = Experiment::setup(make_cfg()).expect("second setup");
    assert_eq!(
        params_snapshot(exp1.model().1),
        params_snapshot(exp2.model().1)
    );
    std::fs::remove_dir_all(&work_dir).ok();
}
