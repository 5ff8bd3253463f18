//! The paper pipeline on the residual architecture — the generality claim
//! exercised end-to-end in CI.

use membit_core::{
    calibrate_noise, evaluate, evaluate_with_hook, layer_sensitivity, pretrain, GboConfig,
    GboTrainer, PlaHook, TrainConfig,
};
use membit_data::{synth_cifar, SynthCifarConfig};
use membit_nn::{NoNoise, Params, ResNet, ResNetConfig};
use membit_tensor::{Rng, RngStream};

#[test]
fn resnet_trains_calibrates_and_searches() {
    let mut cfg = ResNetConfig::tiny();
    cfg.num_classes = 10;
    // the 8-wide tiny config underfits 10 classes; widen for the test
    cfg.stem_channels = 16;
    cfg.stages = vec![(16, 1), (32, 1)];
    let (train, test) = synth_cifar(&SynthCifarConfig::tiny(), 31).expect("data");
    let mut rng = Rng::from_seed(31).stream(RngStream::Init);
    let mut params = Params::new();
    let mut net = ResNet::new(&cfg, &mut params, &mut rng).expect("resnet");
    let layers = net.crossbar_layers();
    assert_eq!(layers, 5);

    let tc = TrainConfig {
        epochs: 30,
        batch_size: 24,
        lr: 2e-2,
        momentum: 0.9,
        weight_decay: 0.0,
        augment_flip: false,
        seed: 31,
    };
    let report = pretrain(&mut net, &mut params, &train, &tc, &mut NoNoise).expect("train");
    assert!(
        report.epoch_losses.last().unwrap() < report.epoch_losses.first().unwrap(),
        "loss should fall: {:?}",
        report.epoch_losses
    );
    let clean = evaluate(&mut net, &params, &test, 24).expect("clean");
    assert!(clean > 0.2, "clean accuracy {clean} barely above chance");

    // calibration covers every hooked layer
    let cal = calibrate_noise(&mut net, &params, &train, 24, 3, 14.0).expect("cal");
    assert_eq!(cal.layers(), layers);
    assert!(cal.rms().iter().all(|&r| r > 0.0));

    // sensitivity runs per layer
    let sens = layer_sensitivity(&mut net, &params, &test, &cal.sigma_abs(30.0), 24, 1, 5)
        .expect("sensitivity");
    assert_eq!(sens.len(), layers);

    // noisy eval: more pulses help under severe noise
    let noisy = |net: &mut ResNet, params: &Params, q: usize| {
        let mut acc = 0.0;
        for rep in 0..3u64 {
            let mut hook = PlaHook::new(
                vec![q; layers],
                cal.sigma_abs(22.0),
                9,
                Rng::from_seed(600 + rep).stream(RngStream::Noise),
            )
            .expect("hook");
            acc += evaluate_with_hook(net, params, &test, 24, &mut hook).expect("eval");
        }
        acc / 3.0
    };
    let p4 = noisy(&mut net, &params, 4);
    let p16 = noisy(&mut net, &params, 16);
    assert!(p16 > p4, "p16 {p16} should beat p4 {p4} under heavy noise");

    // the unchanged GBO search runs on the residual topology
    let mut gbo = GboConfig::paper(1e-3, 32);
    gbo.epochs = 2;
    gbo.batch_size = 24;
    let mut trainer = GboTrainer::new(layers, gbo).expect("trainer");
    let result = trainer
        .search(&mut net, &params, &train, &cal, 22.0)
        .expect("search");
    assert_eq!(result.selected_pulses.len(), layers);
    for &p in &result.selected_pulses {
        assert!((4..=16).contains(&p));
    }
}
