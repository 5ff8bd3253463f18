//! Golden training and search digests: the determinism contract of the
//! training stack across changes.
//!
//! `golden_forward` pins what a deployment computes; this suite pins
//! what the training loops and the searches produce. Every bit of the
//! trained parameters, the batch-norm statistics, the per-epoch losses,
//! the GBO logits and the analytic MemSE selections is folded into one
//! digest per scenario and compared with a constant recorded once. A
//! change to the epoch loop, the rollback, the resume path or the
//! coordinate descent that moves any of those bits fails here.
//!
//! If a change is *meant* to move these numbers, re-record the
//! constants from the failure message and say so in the change log.

use std::path::PathBuf;

use membit_core::{
    calibrate_noise, nia_finetune, nia_finetune_variation_aware, pretrain, pretrain_resilient,
    CrossbarModel, DeploymentPolicy, DeviceEvalConfig, DeviceVgg, GboConfig, GboResult, GboTrainer,
    MemseNetwork, NanFault, NiaConfig, NiaVariation, ResilienceConfig, TrainConfig, TrainError,
    TrainReport,
};
use membit_data::{synth_cifar, Dataset, SynthCifarConfig};
use membit_nn::{Mlp, MlpConfig, NoNoise, Params, Vgg, VggConfig};
use membit_tensor::{Rng, RngStream, Tensor};
use membit_xbar::{GuardPolicy, XbarConfig};

/// FNV-1a over 64-bit words, fed little-endian byte by byte.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for &b in bytes {
            self.word(u64::from(b));
        }
    }

    fn f32s(&mut self, values: &[f32]) {
        self.word(values.len() as u64);
        for v in values {
            self.word(u64::from(v.to_bits()));
        }
    }

    fn usizes(&mut self, values: &[usize]) {
        self.word(values.len() as u64);
        for &v in values {
            self.word(v as u64);
        }
    }

    fn named(&mut self, tensors: &[(String, Tensor)]) {
        self.word(tensors.len() as u64);
        for (name, tensor) in tensors {
            self.bytes(name.as_bytes());
            self.usizes(tensor.shape());
            self.f32s(tensor.as_slice());
        }
    }

    /// Parameters and batch-norm running statistics of a trained model.
    fn model(&mut self, model: &dyn CrossbarModel, params: &Params) {
        let named: Vec<(String, Tensor)> = params
            .iter()
            .map(|(n, t)| (n.to_string(), t.clone()))
            .collect();
        self.named(&named);
        self.named(&model.state_tensors());
    }

    fn report(&mut self, report: &TrainReport) {
        self.f32s(&report.epoch_losses);
        self.word(u64::from(report.final_train_acc.to_bits()));
        self.word(report.watchdog_trips as u64);
    }

    fn gbo(&mut self, result: &GboResult) {
        self.word(result.lambdas.len() as u64);
        for lam in &result.lambdas {
            self.f32s(lam);
        }
        self.f32s(&result.epoch_losses);
        self.f32s(&result.selected_scale);
        self.usizes(&result.selected_pulses);
    }
}

/// A tiny BN MLP and 60 training images: 4 batches of 16 per epoch.
fn tiny_mlp(seed: u64, hidden: &[usize]) -> (Mlp, Params, Dataset) {
    let data = SynthCifarConfig {
        train_per_class: 6,
        test_per_class: 2,
        ..SynthCifarConfig::tiny()
    };
    let (train, _) = synth_cifar(&data, seed).expect("data");
    let mut params = Params::new();
    let mut rng = Rng::from_seed(seed).stream(RngStream::Init);
    let mlp = Mlp::new(
        &MlpConfig::new(3 * 8 * 8, hidden, 10),
        &mut params,
        &mut rng,
    )
    .expect("model");
    (mlp, params, train)
}

fn train_cfg(epochs: usize, seed: u64) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 16,
        lr: 2e-2,
        momentum: 0.9,
        weight_decay: 5e-4,
        augment_flip: true,
        seed,
    }
}

/// (a) Pre-training with one transient NaN on forward pass 2: the
/// watchdog rolls epoch 0 back once and the run completes.
fn pretrain_rollback() -> u64 {
    let (mut mlp, mut params, train) = tiny_mlp(7, &[16]);
    let report = pretrain(
        &mut mlp,
        &mut params,
        &train,
        &train_cfg(3, 7),
        &mut NanFault::once_at(2),
    )
    .expect("a transient fault is recoverable");
    assert_eq!(report.watchdog_trips, 1, "the scenario must roll back once");
    let mut h = Fnv::new();
    h.model(&mlp, &params);
    h.report(&report);
    h.0
}

/// (b) Pre-training killed at epoch 2 by a persistent fault, then
/// resumed from its on-disk checkpoint by a fresh model.
fn pretrain_kill_and_resume() -> u64 {
    let cfg = train_cfg(4, 11);
    let path: PathBuf =
        std::env::temp_dir().join(format!("membit-golden-search-{}.ckpt", std::process::id()));
    std::fs::remove_file(&path).ok();
    let (mut mlp, mut params, train) = tiny_mlp(11, &[16]);
    let err = pretrain_resilient(
        &mut mlp,
        &mut params,
        &train,
        &cfg,
        &mut NanFault::always_from(8),
        &ResilienceConfig::auto(path.clone(), false),
    )
    .expect_err("a persistent fault diverges");
    assert!(
        matches!(err, TrainError::Diverged { epoch: 2, .. }),
        "expected divergence at epoch 2, got {err}"
    );
    let (mut mlp, mut params, _) = tiny_mlp(11, &[16]);
    let report = pretrain_resilient(
        &mut mlp,
        &mut params,
        &train,
        &cfg,
        &mut NoNoise,
        &ResilienceConfig::auto(path.clone(), true),
    )
    .expect("resumed run");
    assert!(!path.exists(), "a finished run removes its checkpoint");
    let mut h = Fnv::new();
    h.model(&mlp, &params);
    h.report(&report);
    h.0
}

/// (c) A 3-epoch Monte-Carlo GBO search over two crossbar layers.
fn gbo_monte_carlo() -> u64 {
    let (mut mlp, mut params, train) = tiny_mlp(5, &[16, 12]);
    pretrain(
        &mut mlp,
        &mut params,
        &train,
        &train_cfg(2, 5),
        &mut NoNoise,
    )
    .expect("pretrain");
    let cal = calibrate_noise(&mut mlp, &params, &train, 16, 2, 4.0).expect("calibration");
    let cfg = GboConfig {
        epochs: 3,
        batch_size: 16,
        lr: 0.2,
        ..GboConfig::paper(0.01, 5)
    };
    let mut trainer = GboTrainer::new(mlp.crossbar_layers(), cfg).expect("trainer");
    let result = trainer
        .search(&mut mlp, &params, &train, &cal, 3.0)
        .expect("search");
    let mut h = Fnv::new();
    h.gbo(&result);
    h.0
}

/// (d) NIA fine-tuning followed by its variation-aware variant.
fn nia_stages() -> u64 {
    let (mut mlp, mut params, train) = tiny_mlp(3, &[16]);
    pretrain(
        &mut mlp,
        &mut params,
        &train,
        &train_cfg(2, 3),
        &mut NoNoise,
    )
    .expect("pretrain");
    let cal = calibrate_noise(&mut mlp, &params, &train, 16, 2, 10.0).expect("calibration");
    let cfg = NiaConfig {
        epochs: 2,
        batch_size: 16,
        lr: 2e-3,
        pulses: 8,
        augment_flip: true,
        seed: 4,
    };
    let nia = nia_finetune(&mut mlp, &mut params, &train, &cal, 15.0, &cfg).expect("nia");
    let var = nia_finetune_variation_aware(
        &mut mlp,
        &mut params,
        &train,
        &cal,
        15.0,
        &cfg,
        &NiaVariation::standard(),
    )
    .expect("variation-aware nia");
    let mut h = Fnv::new();
    h.model(&mlp, &params);
    h.report(&nia);
    h.report(&var);
    h.0
}

/// (e) The MemSE/GBO path on a tiled, guarded `realistic` tiny VGG: the
/// analytic search and the per-tile allocation of the captured
/// deployment, then one forward after swapping in the selection.
fn memse_search() -> u64 {
    let mut params = Params::new();
    let vgg = Vgg::new(&VggConfig::tiny(), &mut params, &mut Rng::from_seed(2022)).expect("vgg");
    let mut xbar = XbarConfig::realistic(0.08).with_guard(GuardPolicy::standard());
    xbar.tile_rows = 32;
    xbar.tile_cols = 4;
    let cfg = DeviceEvalConfig {
        xbar,
        pulses: vec![8; 3],
        act_levels: 9,
        policy: DeploymentPolicy::default(),
    };
    let mut rng = Rng::from_seed(9);
    let mut device = DeviceVgg::deploy(&vgg, &params, &cfg, &mut rng).expect("deploy");
    let probe = Tensor::from_fn(&[2, 3, 8, 8], |i| ((i % 17) as f32 / 8.0 - 1.0) * 0.9);
    let net = MemseNetwork::from_device(&device, &probe).expect("capture");
    let candidates = GboConfig::paper(1e-3, 0).pulse_lengths();
    let gamma = 1e-3;
    let sel = net
        .analytic_search(&candidates, gamma)
        .expect("analytic search");
    let tiles = net
        .tile_allocation(&candidates, gamma)
        .expect("tile allocation");
    assert!(
        tiles.pulses.iter().any(|qs| qs.len() > 1),
        "the scenario must give the per-tile search several column groups"
    );
    let mut h = Fnv::new();
    h.usizes(&sel.pulses);
    h.f32s(&[sel.mse, sel.disagreement, sel.objective]);
    h.f32s(&sel.sweep_objectives);
    h.word(sel.evaluations as u64);
    for qs in &tiles.pulses {
        h.usizes(qs);
    }
    h.f32s(&[tiles.mse, tiles.disagreement, tiles.energy, tiles.objective]);
    h.word(tiles.latency as u64);
    h.word(tiles.evaluations as u64);
    device
        .reconfigure_encoding(&sel.pulses)
        .expect("reconfigure");
    let images = Tensor::from_fn(&[4, 3, 8, 8], |_| rng.uniform(-1.0, 1.0));
    let (logits, _) = device.forward(&images, &mut rng).expect("forward");
    h.f32s(logits.as_slice());
    h.0
}

/// A scenario's name, its digest function and the recorded digest.
type Golden = (&'static str, fn() -> u64, u64);

/// The five scenarios, recorded at commit `0d5ecf8`.
const GOLDEN: [Golden; 5] = [
    (
        "pretrain_rollback",
        pretrain_rollback,
        0x2f81_b65e_2771_7676,
    ),
    (
        "pretrain_kill_and_resume",
        pretrain_kill_and_resume,
        0x35a5_bf6a_f8aa_5757,
    ),
    ("gbo_monte_carlo", gbo_monte_carlo, 0xc573_c041_5af1_248e),
    ("nia_stages", nia_stages, 0x5d62_a7cf_6df2_64a2),
    ("memse_search", memse_search, 0xd09a_f7c9_8f68_67b1),
];

#[test]
fn digests_match_the_recorded_goldens() {
    let failures: Vec<String> = GOLDEN
        .iter()
        .filter_map(|&(name, digest, want)| {
            let got = digest();
            (got != want).then(|| format!("{name}: {got:#018x}, recorded {want:#018x}"))
        })
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
