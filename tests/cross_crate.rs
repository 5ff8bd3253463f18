//! Cross-crate integration: checkpoint round-trips through the full VGG,
//! functional-vs-device-level agreement, and dataset/model plumbing.

use membit_core::{
    evaluate, pretrain, CrossbarModel, DeploymentPolicy, DeviceEvalConfig, DeviceVgg, TrainConfig,
};
use membit_data::{synth_cifar, Dataset, SynthCifarConfig};
use membit_nn::{load_params, save_params, NoNoise, Params, Vgg, VggConfig};
use membit_tensor::{Rng, RngStream, Tensor};
use membit_xbar::XbarConfig;

fn tiny_vgg(seed: u64) -> (Vgg, Params) {
    let mut rng = Rng::from_seed(seed).stream(RngStream::Init);
    let mut params = Params::new();
    let mut cfg = VggConfig::tiny();
    cfg.num_classes = 10;
    let vgg = Vgg::new(&cfg, &mut params, &mut rng).expect("vgg");
    (vgg, params)
}

#[test]
fn vgg_checkpoint_roundtrip_preserves_predictions() {
    let (mut vgg, mut params) = tiny_vgg(1);
    let (train, test) = synth_cifar(&SynthCifarConfig::tiny(), 2).expect("data");
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 30,
        lr: 1e-2,
        momentum: 0.9,
        weight_decay: 0.0,
        augment_flip: false,
        seed: 1,
    };
    pretrain(&mut vgg, &mut params, &train, &cfg, &mut NoNoise).expect("train");
    let acc_before = evaluate(&mut vgg, &params, &test, 20).expect("eval");

    let path = std::env::temp_dir().join(format!("membit-itest-{}.ckpt", std::process::id()));
    let state = vgg.state_tensors();
    save_params(&path, &params, &state).expect("save");

    // fresh model, restore, same accuracy
    let (mut vgg2, mut params2) = tiny_vgg(99); // different init seed
    let entries = load_params(&path).expect("load");
    vgg2.restore_state_tensors(&entries);
    for (name, tensor) in entries {
        let is_state = state.iter().any(|(n, _)| *n == name);
        assert!(
            is_state || params2.assign(&name, tensor),
            "unknown param {name}"
        );
    }
    std::fs::remove_file(&path).ok();
    let acc_after = evaluate(&mut vgg2, &params2, &test, 20).expect("eval");
    assert_eq!(acc_before, acc_after);
}

#[test]
fn ideal_device_level_agrees_with_functional_model() {
    let (mut vgg, mut params) = tiny_vgg(3);
    let (train, test) = synth_cifar(&SynthCifarConfig::tiny(), 4).expect("data");
    let cfg = TrainConfig {
        epochs: 3,
        batch_size: 30,
        lr: 1e-2,
        momentum: 0.9,
        weight_decay: 0.0,
        augment_flip: false,
        seed: 3,
    };
    pretrain(&mut vgg, &mut params, &train, &cfg, &mut NoNoise).expect("train");
    let functional = evaluate(&mut vgg, &params, &test, 20).expect("eval");

    let mut rng = Rng::from_seed(3).stream(RngStream::Device);
    let mut device = DeviceVgg::deploy(
        &vgg,
        &params,
        &DeviceEvalConfig {
            xbar: XbarConfig::ideal(),
            pulses: vec![8, 8, 8],
            act_levels: 9,
            policy: DeploymentPolicy::default(),
        },
        &mut rng,
    )
    .expect("deploy");
    let (dev_acc, stats) = device.evaluate(&test, 20, &mut rng).expect("device eval");
    // The ideal crossbar computes the same function up to the input
    // quantization the functional path also applies post-tanh; small
    // differences can flip a few borderline samples.
    assert!(
        (dev_acc - functional).abs() < 0.1,
        "device {dev_acc} vs functional {functional}"
    );
    assert!(stats.tile_mvms > 0);
    assert!(stats.pulses_per_vector() > 0.0);
}

#[test]
fn single_channel_dataset_trains_a_single_channel_model() {
    // one-channel, four-class images flow through the same machinery; a
    // few more samples than `tiny` keeps the accuracy check
    // statistically stable
    let data_cfg = SynthCifarConfig {
        num_classes: 4,
        train_per_class: 30,
        test_per_class: 10,
        channels: 1,
        ..SynthCifarConfig::tiny()
    };
    let (train, test) = synth_cifar(&data_cfg, 8).expect("data");
    assert_eq!(train.sample_shape(), &[1, 8, 8]);
    let mut rng = Rng::from_seed(8).stream(RngStream::Init);
    let mut params = Params::new();
    let mut mlp = membit_nn::Mlp::new(
        &membit_nn::MlpConfig::new(64, &[16], 4),
        &mut params,
        &mut rng,
    )
    .expect("mlp");
    let cfg = TrainConfig {
        epochs: 40,
        batch_size: 20,
        lr: 2e-2,
        momentum: 0.9,
        weight_decay: 0.0,
        augment_flip: false,
        seed: 8,
    };
    pretrain(&mut mlp, &mut params, &train, &cfg, &mut NoNoise).expect("train");
    let acc = evaluate(&mut mlp, &params, &test, 16).expect("eval");
    assert!(
        acc > 0.4,
        "single-channel accuracy only {acc} (chance 0.25)"
    );
}

#[test]
fn dataset_batching_and_model_agree_on_any_batch_size() {
    let (_, test) = synth_cifar(&SynthCifarConfig::tiny(), 10).expect("data");
    let (mut vgg, params) = tiny_vgg(10);
    let full = evaluate(&mut vgg, &params, &test, test.len()).expect("one batch");
    let small = evaluate(&mut vgg, &params, &test, 7).expect("odd batches");
    assert_eq!(full, small);
}

#[test]
fn labels_out_of_model_range_are_rejected_cleanly() {
    // a 4-class tiny VGG fed 10-class labels must error, not panic
    let mut rng = Rng::from_seed(11).stream(RngStream::Init);
    let mut params = Params::new();
    let mut vgg = Vgg::new(&VggConfig::tiny(), &mut params, &mut rng).expect("vgg");
    let images = Tensor::zeros(&[4, 3, 8, 8]);
    let data = Dataset::new(images, vec![0, 1, 2, 9], 10).expect("data");
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 4,
        lr: 1e-2,
        momentum: 0.0,
        weight_decay: 0.0,
        augment_flip: false,
        seed: 11,
    };
    let result = pretrain(&mut vgg, &mut params, &data, &cfg, &mut NoNoise);
    assert!(result.is_err());
}
