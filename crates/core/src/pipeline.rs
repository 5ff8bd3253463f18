//! End-to-end experiment orchestration: data → pre-train (with checkpoint
//! caching) → calibrate → evaluate the paper's methods.

use std::path::PathBuf;

use membit_data::{synth_cifar, Dataset, SynthCifarConfig};
use membit_nn::{load_params, save_params, NoNoise, Params, Vgg, VggConfig};
use membit_tensor::{Rng, RngStream};

use crate::calibrate::{calibrate_noise, NoiseCalibration};
use crate::gbo::{GboConfig, GboResult, GboTrainer};
use crate::hooks::PlaHook;
use crate::model::CrossbarModel;
use crate::nia::{nia_finetune_resilient, NiaConfig};
use crate::resilience::ResilienceConfig;
use crate::trainer::{evaluate, evaluate_with_hook, pretrain_resilient, TrainConfig};
use crate::Result;

/// Complete description of a reproduction run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Network architecture.
    pub vgg: VggConfig,
    /// Dataset generation parameters.
    pub data: SynthCifarConfig,
    /// Pre-training recipe.
    pub train: TrainConfig,
    /// Divisor mapping paper-σ to multiples of layer RMS
    /// (`σ_abs = σ/unit × RMS`); calibrated so Baseline degradation
    /// matches the paper's ladder.
    pub sigma_unit: f32,
    /// Evaluation batch size.
    pub eval_batch: usize,
    /// Noise-seed repeats averaged per noisy evaluation.
    pub eval_repeats: usize,
    /// Checkpoint path for pre-trained weights (loaded if present, saved
    /// after pre-training otherwise).
    pub checkpoint: Option<PathBuf>,
    /// Directory for in-flight auto-checkpoints (one file per training
    /// stage, deleted when the stage completes). `None` disables crash
    /// recovery; the divergence watchdog still runs in-memory.
    pub work_dir: Option<PathBuf>,
    /// Resume interrupted stages from their `work_dir` auto-checkpoints.
    pub resume: bool,
    /// Root seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The default single-core reproduction scale: small VGG9, 16×16
    /// SynthCIFAR, paper training recipe at `epochs`.
    pub fn quick(epochs: usize, seed: u64) -> Self {
        let mut train = TrainConfig::paper(epochs, seed);
        // The paper's base LR (1e-3) assumes CIFAR-scale training volume;
        // at this reduced scale binary weights need larger latent steps to
        // flip within the epoch budget.
        train.lr = 2e-2;
        Self {
            vgg: VggConfig::small(),
            data: SynthCifarConfig::default_experiment(),
            train,
            // Calibrated so the Baseline ladder at paper-σ {10, 15, 20}
            // mirrors the paper's mild/severe/catastrophic degradation
            // (see EXPERIMENTS.md).
            sigma_unit: 14.0,
            eval_batch: 100,
            eval_repeats: 3,
            checkpoint: None,
            work_dir: None,
            resume: false,
            seed,
        }
    }
}

/// Streaming FNV-1a (64-bit) used to derive stable auto-checkpoint names
/// from a stage's identity.
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprints the current parameter values. Two stages with identical
/// configs but different weights (e.g. a GBO search on the base model vs
/// on an NIA-fine-tuned fork) must not share an auto-checkpoint.
fn params_fingerprint(params: &Params) -> u64 {
    let mut h = Fnv64::new();
    for (name, tensor) in params.iter() {
        h.update(name.as_bytes());
        for &v in tensor.as_slice() {
            h.update(&v.to_le_bytes());
        }
    }
    h.finish()
}

/// Builds the resilience policy for one training stage: an
/// auto-checkpoint in `work_dir` named after the stage, its config
/// tokens, and the entering parameter state, so distinct runs never
/// collide. With no `work_dir`, checkpointing is off (in-memory watchdog
/// only).
fn stage_resilience(
    config: &ExperimentConfig,
    stage: &str,
    tokens: &str,
    params: &Params,
) -> Result<ResilienceConfig> {
    let Some(dir) = &config.work_dir else {
        return Ok(ResilienceConfig::default());
    };
    std::fs::create_dir_all(dir)?;
    let mut h = Fnv64::new();
    h.update(stage.as_bytes());
    h.update(tokens.as_bytes());
    h.update(&params_fingerprint(params).to_le_bytes());
    let path = dir.join(format!("{stage}_{:016x}.ckpt", h.finish()));
    Ok(ResilienceConfig::auto(path, config.resume))
}

/// A set-up experiment: trained model, data splits and calibration.
pub struct Experiment {
    config: ExperimentConfig,
    model: Vgg,
    params: Params,
    calibration: NoiseCalibration,
    train_set: Dataset,
    test_set: Dataset,
}

impl Experiment {
    /// Generates data and produces a trained model — from the checkpoint
    /// if one exists at `config.checkpoint`, otherwise by pre-training
    /// (and saving the checkpoint afterwards).
    ///
    /// # Errors
    ///
    /// Propagates training/IO errors.
    pub fn setup(config: ExperimentConfig) -> Result<Self> {
        let (train_set, test_set) = synth_cifar(&config.data, config.seed)?;
        let mut rng = Rng::from_seed(config.seed).stream(RngStream::Init);
        let mut params = Params::new();
        let mut model = Vgg::new(&config.vgg, &mut params, &mut rng)?;

        let loaded = match &config.checkpoint {
            Some(path) if path.exists() => {
                let entries = load_params(path)?;
                // running-stat entries name no parameter, so assign skips them
                model.restore_state_tensors(&entries);
                for (name, tensor) in entries {
                    params.assign(&name, tensor);
                }
                true
            }
            _ => false,
        };
        if !loaded {
            let tokens = format!(
                "seed{} epochs{} lr{}",
                config.train.seed, config.train.epochs, config.train.lr
            );
            let res = stage_resilience(&config, "pretrain", &tokens, &params)?;
            pretrain_resilient(
                &mut model,
                &mut params,
                &train_set,
                &config.train,
                &mut NoNoise,
                &res,
            )?;
            if let Some(path) = &config.checkpoint {
                save_params(path, &params, &model.state_tensors())?;
            }
        }
        let calibration = calibrate_noise(
            &mut model,
            &params,
            &train_set,
            config.eval_batch,
            4,
            config.sigma_unit,
        )?;
        Ok(Self {
            config,
            model,
            params,
            calibration,
            train_set,
            test_set,
        })
    }

    /// The experiment configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// The noise calibration.
    pub fn calibration(&self) -> &NoiseCalibration {
        &self.calibration
    }

    /// The trained model (mutable for NIA-style fine-tuning).
    pub fn model_mut(&mut self) -> (&mut Vgg, &mut Params) {
        (&mut self.model, &mut self.params)
    }

    /// Borrow the trained model and parameters.
    pub fn model(&self) -> (&Vgg, &Params) {
        (&self.model, &self.params)
    }

    /// The training split.
    pub fn train_set(&self) -> &Dataset {
        &self.train_set
    }

    /// The held-out split.
    pub fn test_set(&self) -> &Dataset {
        &self.test_set
    }

    /// Clean (noise-free) test accuracy, in percent.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn eval_clean(&mut self) -> Result<f32> {
        Ok(evaluate(
            &mut self.model,
            &self.params,
            &self.test_set,
            self.config.eval_batch,
        )? * 100.0)
    }

    /// Test accuracy (percent) under per-layer pulse counts `pulses` at
    /// paper-σ `sigma`, averaged over the configured noise repeats.
    /// Uniform `[8; L]` is the Baseline row; uniform `[q; L]` is `PLA_q`;
    /// a GBO solution supplies its per-layer vector.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn eval_pla(&mut self, sigma: f32, pulses: &[usize]) -> Result<f32> {
        let sigma_abs = self.calibration.sigma_abs(sigma);
        let mut acc_sum = 0.0f32;
        let repeats = self.config.eval_repeats.max(1);
        for rep in 0..repeats {
            let rng = Rng::from_seed(self.config.seed ^ ((rep as u64 + 1) << 40))
                .stream(RngStream::Noise);
            let mut hook = PlaHook::new(
                pulses.to_vec(),
                sigma_abs.clone(),
                self.config.vgg.act_levels,
                rng,
            )?;
            acc_sum += evaluate_with_hook(
                &mut self.model,
                &self.params,
                &self.test_set,
                self.config.eval_batch,
                &mut hook,
            )?;
        }
        Ok(acc_sum / repeats as f32 * 100.0)
    }

    /// Runs a GBO search at `sigma` with trade-off weight `gamma`,
    /// returning the selected per-layer encoding.
    ///
    /// # Errors
    ///
    /// Propagates search errors.
    pub fn run_gbo(&mut self, sigma: f32, mut gbo: GboConfig) -> Result<GboResult> {
        gbo.seed ^= self.config.seed;
        let tokens = format!(
            "sigma{sigma} gamma{} epochs{} seed{}",
            gbo.gamma, gbo.epochs, gbo.seed
        );
        let res = stage_resilience(&self.config, "gbo", &tokens, &self.params)?;
        let mut trainer = GboTrainer::new(self.model.crossbar_layers(), gbo)?;
        trainer.search_resilient(
            &mut self.model,
            &self.params,
            &self.train_set,
            &self.calibration,
            sigma,
            &res,
        )
    }

    /// NIA-fine-tunes the held model at `sigma` (mutates the weights; use
    /// on a cloned experiment or after all clean evaluations).
    ///
    /// # Errors
    ///
    /// Propagates training errors.
    pub fn run_nia(&mut self, sigma: f32, cfg: &NiaConfig) -> Result<()> {
        let tokens = format!("sigma{sigma} epochs{} seed{}", cfg.epochs, cfg.seed);
        let res = stage_resilience(&self.config, "nia", &tokens, &self.params)?;
        nia_finetune_resilient(
            &mut self.model,
            &mut self.params,
            &self.train_set,
            &self.calibration,
            sigma,
            cfg,
            &res,
        )?;
        // recalibrate: fine-tuned weights shift layer statistics
        self.calibration = calibrate_noise(
            &mut self.model,
            &self.params,
            &self.train_set,
            self.config.eval_batch,
            4,
            self.config.sigma_unit,
        )?;
        Ok(())
    }

    /// Snapshot of the trained state, so NIA variants can fork without
    /// re-training.
    pub fn fork(&self) -> Experiment
    where
        Vgg: Clone,
    {
        Experiment {
            config: self.config.clone(),
            model: self.model.clone(),
            params: self.params.clone(),
            calibration: self.calibration.clone(),
            train_set: self.train_set.clone(),
            test_set: self.test_set.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use membit_tensor::Tensor;

    fn tiny_config(seed: u64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::quick(2, seed);
        cfg.vgg = VggConfig::tiny();
        cfg.vgg.num_classes = 10;
        cfg.vgg.in_h = 8;
        cfg.vgg.in_w = 8;
        cfg.data = SynthCifarConfig::tiny();
        cfg.train.batch_size = 40;
        cfg.eval_batch = 40;
        cfg.eval_repeats = 1;
        cfg
    }

    #[test]
    fn setup_and_basic_evals() {
        let mut exp = Experiment::setup(tiny_config(1)).unwrap();
        let clean = exp.eval_clean().unwrap();
        assert!((0.0..=100.0).contains(&clean));
        assert_eq!(exp.calibration().layers(), 3);
        let noisy = exp.eval_pla(20.0, &[8, 8, 8]).unwrap();
        assert!((0.0..=100.0).contains(&noisy));
        // heavy noise should not beat clean by a wide margin
        assert!(noisy <= clean + 15.0);
    }

    #[test]
    fn checkpoint_roundtrip_reuses_weights() {
        let dir = std::env::temp_dir().join(format!("membit-exp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("tiny.ckpt");
        let mut cfg = tiny_config(2);
        cfg.checkpoint = Some(ckpt.clone());
        let mut exp1 = Experiment::setup(cfg.clone()).unwrap();
        let acc1 = exp1.eval_clean().unwrap();
        assert!(ckpt.exists());
        // second setup loads instead of training
        let mut exp2 = Experiment::setup(cfg).unwrap();
        let acc2 = exp2.eval_clean().unwrap();
        assert_eq!(acc1, acc2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fork_is_independent() {
        let exp = Experiment::setup(tiny_config(3)).unwrap();
        let mut fork = exp.fork();
        let (_, params) = fork.model_mut();
        let id = params.find("conv0.weight").unwrap();
        let zeroed = Tensor::zeros(params.get(id).shape());
        let name = params.name(id).to_string();
        params.assign(&name, zeroed);
        // original untouched
        let (_, orig_params) = exp.model();
        let orig = orig_params.get(orig_params.find("conv0.weight").unwrap());
        assert!(orig.map(f32::abs).sum() > 0.0);
    }
}
