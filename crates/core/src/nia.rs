//! Noise-Injection Adaptation (NIA, He et al. DAC'19) — the prior
//! noise-aware *weight* training GBO is compared against and combined
//! with (paper §IV-C, Table II).
//!
//! NIA fine-tunes the pre-trained weights while injecting the same
//! functional crossbar noise the deployment will see, letting the weights
//! absorb the noise statistics. It is complementary to GBO, which leaves
//! weights untouched and changes only the input encoding.

use membit_data::Dataset;
use membit_nn::Params;
use membit_tensor::{Rng, RngStream, TensorError};

use crate::calibrate::NoiseCalibration;
use crate::hooks::{GaussianMvmNoise, VariationAwareNoise};
use crate::model::CrossbarModel;
use crate::resilience::ResilienceConfig;
use crate::trainer::{pretrain_stage, TrainConfig, TrainReport};
use crate::Result;

/// Hyperparameters for NIA fine-tuning.
#[derive(Debug, Clone, PartialEq)]
pub struct NiaConfig {
    /// Fine-tuning epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Learning rate (fine-tuning: lower than pre-training).
    pub lr: f32,
    /// Pulse count assumed during fine-tuning (the deployment baseline,
    /// 8 in the paper).
    pub pulses: usize,
    /// Horizontal-flip augmentation during fine-tuning — should match
    /// whatever the pre-training stage used.
    pub augment_flip: bool,
    /// Root RNG seed.
    pub seed: u64,
}

impl NiaConfig {
    /// Default fine-tuning recipe: `epochs` on the 8-pulse baseline
    /// encoding. The LR is an order below this repo's pre-training LR
    /// (mirroring the paper's fine-tune-vs-pretrain ratio) rather than
    /// the paper's absolute 1e-4, which stalls at this reduced scale.
    pub fn new(epochs: usize, seed: u64) -> Self {
        Self {
            epochs,
            batch_size: 50,
            lr: 2e-3,
            pulses: 8,
            augment_flip: true,
            seed,
        }
    }
}

/// Fine-tunes `model`'s weights with per-layer Gaussian noise injection at
/// the level `calibration` assigns to `paper_sigma`.
///
/// # Errors
///
/// Propagates training errors and layer-count mismatches.
pub fn nia_finetune(
    model: &mut dyn CrossbarModel,
    params: &mut Params,
    train: &Dataset,
    calibration: &NoiseCalibration,
    paper_sigma: f32,
    cfg: &NiaConfig,
) -> Result<TrainReport> {
    nia_finetune_resilient(
        model,
        params,
        train,
        calibration,
        paper_sigma,
        cfg,
        &ResilienceConfig::default(),
    )
}

/// [`nia_finetune`] with an explicit resilience policy: the underlying
/// noisy training loop gains watchdog-guarded rollback, per-epoch atomic
/// checkpoints (including the noise hook's RNG stream, so the injected
/// noise sequence survives a restart), and `--resume` restore. See
/// [`pretrain_resilient`](crate::pretrain_resilient) for the shared
/// semantics.
///
/// # Errors
///
/// As [`nia_finetune`], plus checkpoint errors and
/// [`TrainError::Diverged`](crate::TrainError::Diverged) on unrecoverable
/// divergence.
pub fn nia_finetune_resilient(
    model: &mut dyn CrossbarModel,
    params: &mut Params,
    train: &Dataset,
    calibration: &NoiseCalibration,
    paper_sigma: f32,
    cfg: &NiaConfig,
    res: &ResilienceConfig,
) -> Result<TrainReport> {
    let (sigma_abs, noise_rng, train_cfg) = nia_setup(model, calibration, paper_sigma, cfg)?;
    let pulses = vec![cfg.pulses; sigma_abs.len()];
    let mut hook = GaussianMvmNoise::new(sigma_abs, pulses, noise_rng)?;
    pretrain_stage("nia", model, params, train, &train_cfg, &mut hook, res)
}

/// What both NIA variants share: the layer check, the per-layer noise
/// level, the noise stream and the fine-tuning [`TrainConfig`].
fn nia_setup(
    model: &dyn CrossbarModel,
    calibration: &NoiseCalibration,
    paper_sigma: f32,
    cfg: &NiaConfig,
) -> Result<(Vec<f32>, Rng, TrainConfig)> {
    if calibration.layers() != model.crossbar_layers() {
        return Err(TensorError::InvalidArgument(format!(
            "calibration covers {} layers but model has {}",
            calibration.layers(),
            model.crossbar_layers()
        ))
        .into());
    }
    let train_cfg = TrainConfig {
        epochs: cfg.epochs,
        batch_size: cfg.batch_size,
        lr: cfg.lr,
        momentum: 0.9,
        weight_decay: 5e-4,
        augment_flip: cfg.augment_flip,
        seed: cfg.seed,
    };
    Ok((
        calibration.sigma_abs(paper_sigma),
        Rng::from_seed(cfg.seed).stream(RngStream::Noise),
        train_cfg,
    ))
}

/// Operating-condition envelope sampled during variation-aware NIA
/// fine-tuning (see [`nia_finetune_variation_aware`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NiaVariation {
    /// Sampled operating-temperature range in kelvin; each forward pass
    /// draws one temperature uniformly from it.
    pub temp_range: (f32, f32),
    /// Maximum IR-drop output droop fraction; each pass draws a severity
    /// uniformly from `[0, droop]`.
    pub droop: f32,
}

impl NiaVariation {
    /// The envelope the `ablation_nonideal` experiment deploys into:
    /// room temperature up to a hot 370 K corner, with up to 10 % signal
    /// droop from wire resistance.
    pub fn standard() -> Self {
        Self {
            temp_range: (membit_xbar::T_REF, 370.0),
            droop: 0.10,
        }
    }
}

/// [`nia_finetune`] made *variation-aware*: instead of one fixed noise
/// level, each fine-tuning forward pass samples an operating temperature
/// and an IR-drop severity from `var`'s envelope, scaling the injected
/// noise by `√(T/T_REF)` and the MVM outputs by the sampled attenuation
/// (the functional image of what
/// [`membit_xbar::NonIdealitySpec`] does to the physical array). The
/// weights therefore adapt to the whole deployment envelope rather than
/// its center.
///
/// # Errors
///
/// As [`nia_finetune`], plus invalid `var` envelopes.
pub fn nia_finetune_variation_aware(
    model: &mut dyn CrossbarModel,
    params: &mut Params,
    train: &Dataset,
    calibration: &NoiseCalibration,
    paper_sigma: f32,
    cfg: &NiaConfig,
    var: &NiaVariation,
) -> Result<TrainReport> {
    let (sigma_abs, noise_rng, train_cfg) = nia_setup(model, calibration, paper_sigma, cfg)?;
    let pulses = vec![cfg.pulses; sigma_abs.len()];
    let mut hook =
        VariationAwareNoise::new(sigma_abs, pulses, var.temp_range, var.droop, noise_rng)?;
    pretrain_stage(
        "nia-var",
        model,
        params,
        train,
        &train_cfg,
        &mut hook,
        &ResilienceConfig::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::calibrate_noise;
    use crate::hooks::PlaHook;
    use crate::trainer::{evaluate_with_hook, pretrain as clean_pretrain};
    use membit_data::{synth_cifar, SynthCifarConfig};
    use membit_nn::{Mlp, MlpConfig, NoNoise};

    #[test]
    fn nia_improves_noisy_accuracy() {
        let mut rng = Rng::from_seed(0);
        let mut params = Params::new();
        let mut mlp = Mlp::new(
            &MlpConfig::new(3 * 8 * 8, &[24], 10),
            &mut params,
            &mut rng,
        )
        .unwrap();
        let (train, test) = synth_cifar(&SynthCifarConfig::tiny(), 11).unwrap();
        let tc = TrainConfig {
            epochs: 6,
            batch_size: 40,
            lr: 5e-3,
            momentum: 0.9,
            weight_decay: 0.0,
            augment_flip: false,
            seed: 3,
        };
        clean_pretrain(&mut mlp, &mut params, &train, &tc, &mut NoNoise).unwrap();
        let cal = calibrate_noise(&mut mlp, &params, &train, 20, 2, 10.0).unwrap();
        let sigma = 20.0;

        let eval = |mlp: &mut Mlp, params: &Params, seed: u64| {
            let mut hook = PlaHook::new(
                vec![8; 1],
                cal.sigma_abs(sigma),
                9,
                Rng::from_seed(seed).stream(RngStream::Noise),
            )
            .unwrap();
            evaluate_with_hook(mlp, params, &test, 20, &mut hook).unwrap()
        };
        let before: f32 = (0..3).map(|s| eval(&mut mlp, &params, s)).sum::<f32>() / 3.0;
        nia_finetune(
            &mut mlp,
            &mut params,
            &train,
            &cal,
            sigma,
            &NiaConfig {
                epochs: 5,
                batch_size: 40,
                lr: 2e-3,
                pulses: 8,
                augment_flip: false,
                seed: 4,
            },
        )
        .unwrap();
        let after: f32 = (0..3).map(|s| eval(&mut mlp, &params, s)).sum::<f32>() / 3.0;
        assert!(
            after >= before - 0.02,
            "NIA should not hurt noisy accuracy: {before} → {after}"
        );
    }

    #[test]
    fn variation_aware_finetune_runs_and_validates() {
        let mut rng = Rng::from_seed(21);
        let mut params = Params::new();
        let mut mlp = Mlp::new(
            &MlpConfig::new(3 * 8 * 8, &[12], 10),
            &mut params,
            &mut rng,
        )
        .unwrap();
        let (train, _) = synth_cifar(&SynthCifarConfig::tiny(), 23).unwrap();
        let cal = calibrate_noise(&mut mlp, &params, &train, 20, 1, 10.0).unwrap();
        let cfg = NiaConfig {
            epochs: 1,
            batch_size: 40,
            lr: 2e-3,
            pulses: 8,
            augment_flip: false,
            seed: 5,
        };
        let report = nia_finetune_variation_aware(
            &mut mlp,
            &mut params,
            &train,
            &cal,
            15.0,
            &cfg,
            &NiaVariation::standard(),
        )
        .unwrap();
        assert!(report.final_train_acc >= 0.0);
        // a non-physical envelope is rejected before any training
        let bad = NiaVariation {
            temp_range: (500.0, 600.0),
            droop: 0.1,
        };
        assert!(nia_finetune_variation_aware(
            &mut mlp,
            &mut params,
            &train,
            &cal,
            15.0,
            &cfg,
            &bad
        )
        .is_err());
    }

    #[test]
    fn layer_mismatch_rejected() {
        let mut rng = Rng::from_seed(0);
        let mut params = Params::new();
        let mut mlp = Mlp::new(&MlpConfig::new(8, &[4, 4], 2), &mut params, &mut rng).unwrap();
        let cal = NoiseCalibration::new(vec![1.0], 10.0).unwrap(); // 1 ≠ 2 layers
        let (train, _) = synth_cifar(&SynthCifarConfig::tiny(), 0).unwrap();
        assert!(nia_finetune(
            &mut mlp,
            &mut params,
            &train,
            &cal,
            10.0,
            &NiaConfig::new(1, 0)
        )
        .is_err());
    }
}
