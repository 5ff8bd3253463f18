//! Training and evaluation loops. Pre-training (and NIA fine-tuning,
//! which reuses it) runs on the shared epoch loop, with crash-safe
//! checkpointing and a divergence watchdog.

use membit_autograd::Tape;
use membit_data::Dataset;
use membit_nn::{
    accuracy, Checkpoint, MvmNoiseHook, NoNoise, Optimizer, Params, Phase, Sgd, StepLr,
};

use membit_tensor::{Rng, RngStream, TensorError};

use crate::model::CrossbarModel;
use crate::resilience::{
    need_f64, put_params, put_rng, put_state, restore_params, restore_rng, run_epochs,
    take_state, EpochLoop, EpochRun, ResilienceConfig,
};
use crate::watchdog::TrainWatchdog;
use crate::Result;

/// Hyperparameters for the pre-training stage (paper §IV-A: SGD, momentum
/// 0.9, weight decay 5e-4, base LR 1e-3 with ×0.1 decay at 50/70/90 % of
/// the epochs).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Base learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Random horizontal flips as train-time augmentation.
    pub augment_flip: bool,
    /// Root RNG seed.
    pub seed: u64,
}

impl TrainConfig {
    /// The paper's recipe scaled to `epochs`.
    pub fn paper(epochs: usize, seed: u64) -> Self {
        Self {
            epochs,
            batch_size: 50,
            lr: 1e-3,
            momentum: 0.9,
            weight_decay: 5e-4,
            augment_flip: true,
            seed,
        }
    }

    fn validate(&self) -> Result<()> {
        let problem = if self.epochs == 0 || self.batch_size == 0 {
            "epochs and batch_size must be nonzero"
        } else if !(self.lr.is_finite() && self.lr > 0.0) {
            "lr must be finite and positive"
        } else if !(0.0..1.0).contains(&self.momentum) {
            "momentum must lie in [0, 1)"
        } else if !(self.weight_decay.is_finite() && self.weight_decay >= 0.0) {
            "weight_decay must be finite and non-negative"
        } else {
            return Ok(());
        };
        Err(TensorError::InvalidArgument(problem.into()).into())
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean cross-entropy per epoch.
    pub epoch_losses: Vec<f32>,
    /// Training accuracy of the final epoch (on the fly, train-mode BN).
    pub final_train_acc: f32,
    /// How many times the divergence watchdog tripped (and the loop
    /// rolled back) over the whole run, including resumed history.
    pub watchdog_trips: usize,
}

/// Flips a `[N, C, H, W]` batch horizontally, sample-wise at random.
fn flip_batch(images: &membit_tensor::Tensor, rng: &mut Rng) -> membit_tensor::Tensor {
    let [n, c, h, w] = [
        images.shape()[0],
        images.shape()[1],
        images.shape()[2],
        images.shape()[3],
    ];
    let mut out = images.clone();
    let src = images.as_slice();
    let dst = out.as_mut_slice();
    for ni in 0..n {
        if !rng.coin(0.5) {
            continue;
        }
        for ci in 0..c {
            for y in 0..h {
                let base = ((ni * c + ci) * h + y) * w;
                for x in 0..w {
                    dst[base + x] = src[base + (w - 1 - x)];
                }
            }
        }
    }
    out
}

/// Pre-trains `model` on `train` with cross-entropy loss and the given
/// hook (use [`NoNoise`] for the paper's clean pre-training, or a noise
/// hook for NIA-style noise-aware training).
///
/// Equivalent to [`pretrain_resilient`] with the default
/// [`ResilienceConfig`]: no on-disk checkpointing, watchdog armed.
///
/// # Errors
///
/// Propagates tape/shape errors, rejects invalid configs before the
/// first epoch, and fails with [`TrainError::Diverged`] when the
/// watchdog exhausts its retries.
///
/// [`TrainError::Diverged`]: crate::TrainError::Diverged
pub fn pretrain(
    model: &mut dyn CrossbarModel,
    params: &mut Params,
    train: &Dataset,
    cfg: &TrainConfig,
    hook: &mut dyn MvmNoiseHook,
) -> Result<TrainReport> {
    pretrain_resilient(model, params, train, cfg, hook, &ResilienceConfig::default())
}

/// [`pretrain`] with an explicit resilience policy: per-epoch atomic
/// checkpoints, `--resume` restore, and watchdog-guarded rollback.
///
/// After each epoch the shared epoch loop checkpoints parameters,
/// batch-norm statistics, optimizer moments and RNG streams in memory.
/// When the watchdog trips mid-epoch, it restores that checkpoint,
/// halves the learning rate and replays the epoch — up to
/// [`MAX_RETRIES`](crate::MAX_RETRIES) times before failing with
/// [`TrainError::Diverged`](crate::TrainError::Diverged). With
/// `res.checkpoint` set, the same checkpoint is also written atomically,
/// and `res.resume` restores it so an interrupted run continues
/// bit-for-bit identically to an uninterrupted one.
///
/// # Errors
///
/// As [`pretrain`], plus checkpoint errors.
pub fn pretrain_resilient(
    model: &mut dyn CrossbarModel,
    params: &mut Params,
    train: &Dataset,
    cfg: &TrainConfig,
    hook: &mut dyn MvmNoiseHook,
    res: &ResilienceConfig,
) -> Result<TrainReport> {
    pretrain_stage("pretrain", model, params, train, cfg, hook, res)
}

pub(crate) fn pretrain_stage(
    stage: &str,
    model: &mut dyn CrossbarModel,
    params: &mut Params,
    train: &Dataset,
    cfg: &TrainConfig,
    hook: &mut dyn MvmNoiseHook,
    res: &ResilienceConfig,
) -> Result<TrainReport> {
    cfg.validate()?;
    let root = Rng::from_seed(cfg.seed);
    let mut lp = PretrainLoop {
        model,
        params,
        train,
        cfg,
        hook,
        schedule: StepLr::paper(cfg.lr, cfg.epochs),
        opt: Sgd::new(cfg.lr, cfg.momentum, cfg.weight_decay),
        shuffle_rng: root.stream(RngStream::Data),
        aug_rng: root.stream(RngStream::Custom(77)),
        final_train_acc: 0.0,
    };
    let log = run_epochs(stage, cfg.epochs, res, &mut lp)?;
    Ok(TrainReport {
        epoch_losses: log.losses,
        final_train_acc: lp.final_train_acc,
        watchdog_trips: log.trips,
    })
}

/// Supervised SGD on a [`CrossbarModel`]: the state pre-training and NIA
/// fine-tuning carry from epoch to epoch.
struct PretrainLoop<'a> {
    model: &'a mut dyn CrossbarModel,
    params: &'a mut Params,
    train: &'a Dataset,
    cfg: &'a TrainConfig,
    hook: &'a mut dyn MvmNoiseHook,
    schedule: StepLr,
    opt: Sgd,
    shuffle_rng: Rng,
    aug_rng: Rng,
    final_train_acc: f32,
}

impl EpochLoop for PretrainLoop<'_> {
    fn save(&self, ckpt: &mut Checkpoint) {
        ckpt.put_f64("meta.final_train_acc", f64::from(self.final_train_acc));
        put_rng(ckpt, "shuffle", &self.shuffle_rng);
        put_rng(ckpt, "aug", &self.aug_rng);
        if let Some(hr) = self.hook.state_rng() {
            put_rng(ckpt, "hook", hr);
        }
        put_params(ckpt, self.params);
        put_state(ckpt, "state", self.model.state_tensors());
        put_state(ckpt, "opt", self.opt.state_tensors());
    }

    fn load(&mut self, ckpt: &Checkpoint) -> Result<()> {
        self.final_train_acc = need_f64(ckpt, "meta.final_train_acc")? as f32;
        restore_params(ckpt, self.params)?;
        self.model.restore_state_tensors(&take_state(ckpt, "state"));
        self.opt = Sgd::new(self.cfg.lr, self.cfg.momentum, self.cfg.weight_decay);
        self.opt.restore_state_tensors(&take_state(ckpt, "opt"));
        self.shuffle_rng = restore_rng(ckpt, "shuffle")?;
        self.aug_rng = restore_rng(ckpt, "aug")?;
        if let Some(hr) = self.hook.state_rng_mut() {
            *hr = restore_rng(ckpt, "hook")?;
        }
        Ok(())
    }

    /// One pass over the (re-shuffled) training set. Returns `Tripped`
    /// the moment the watchdog flags the loss or gradients — before the
    /// poisonous optimizer step is applied.
    fn run_epoch(
        &mut self,
        epoch: usize,
        lr_scale: f32,
        watchdog: &mut TrainWatchdog,
    ) -> Result<EpochRun> {
        self.opt.set_lr(self.schedule.lr_at(epoch) * lr_scale);
        let shuffled = self.train.shuffled(&mut self.shuffle_rng);
        let mut loss_sum = 0.0f64;
        let mut batches = 0usize;
        let mut correct = 0usize;
        let mut seen = 0usize;
        // one tape for the whole epoch: reset() keeps node and
        // im2col-buffer allocations, so per-batch forward passes stop
        // re-allocating
        let mut tape = Tape::new();
        for (images, labels) in shuffled.batches(self.cfg.batch_size) {
            let images = if self.cfg.augment_flip {
                flip_batch(&images, &mut self.aug_rng)
            } else {
                images
            };
            tape.reset();
            let mut binding = self.params.binding();
            let x = tape.constant(images);
            let logits = self.model.forward(
                &mut tape,
                self.params,
                &mut binding,
                x,
                Phase::Train,
                self.hook,
            )?;
            let loss = tape.softmax_cross_entropy(logits, &labels)?;
            let loss_value = tape.value(loss).item();
            if let Some(reason) = watchdog.observe(loss_value) {
                return Ok(EpochRun::Tripped(reason));
            }
            loss_sum += f64::from(loss_value);
            batches += 1;
            correct +=
                (accuracy(tape.value(logits), &labels)? * labels.len() as f32).round() as usize;
            seen += labels.len();
            tape.backward(loss)?;
            if let Some(reason) = watchdog.check_grads(&tape, &binding) {
                return Ok(EpochRun::Tripped(reason));
            }
            self.opt.step(self.params, &tape, &binding)?;
        }
        self.final_train_acc = correct as f32 / seen.max(1) as f32;
        Ok(EpochRun::Done((loss_sum / batches.max(1) as f64) as f32))
    }
}

/// Evaluates classification accuracy with an ideal (noise-free) crossbar.
///
/// # Errors
///
/// Propagates tape/shape errors.
pub fn evaluate(
    model: &mut dyn CrossbarModel,
    params: &Params,
    data: &Dataset,
    batch_size: usize,
) -> Result<f32> {
    evaluate_with_hook(model, params, data, batch_size, &mut NoNoise)
}

/// Evaluates classification accuracy with an arbitrary crossbar hook
/// (noise models, PLA snapping, device-level replacement, ...).
///
/// # Errors
///
/// Propagates tape/shape errors.
pub fn evaluate_with_hook(
    model: &mut dyn CrossbarModel,
    params: &Params,
    data: &Dataset,
    batch_size: usize,
    hook: &mut dyn MvmNoiseHook,
) -> Result<f32> {
    let mut correct = 0usize;
    let mut tape = Tape::new();
    for (images, labels) in data.batches(batch_size) {
        tape.reset();
        let mut binding = params.frozen_binding();
        let x = tape.constant(images);
        let logits = model.forward(&mut tape, params, &mut binding, x, Phase::Eval, hook)?;
        correct +=
            (accuracy(tape.value(logits), &labels)? * labels.len() as f32).round() as usize;
    }
    Ok(correct as f32 / data.len().max(1) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrainError;
    use membit_data::{synth_cifar, SynthCifarConfig};
    use membit_nn::{Mlp, MlpConfig};

    fn tiny_setup() -> (Mlp, Params, Dataset, Dataset) {
        let mut rng = Rng::from_seed(0);
        let mut params = Params::new();
        let mlp = Mlp::new(
            &MlpConfig::new(3 * 8 * 8, &[24], 10),
            &mut params,
            &mut rng,
        )
        .unwrap();
        let (train, test) = synth_cifar(&SynthCifarConfig::tiny(), 5).unwrap();
        (mlp, params, train, test)
    }

    /// A named way to break one config field.
    type Corruption = (&'static str, fn(&mut TrainConfig));

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        let (mut mlp, mut params, train, test) = tiny_setup();
        let cfg = TrainConfig {
            epochs: 25,
            batch_size: 20,
            lr: 2e-2,
            momentum: 0.9,
            weight_decay: 0.0,
            augment_flip: false,
            seed: 1,
        };
        let report = pretrain(&mut mlp, &mut params, &train, &cfg, &mut NoNoise).unwrap();
        assert_eq!(report.epoch_losses.len(), 25);
        assert!(
            report.epoch_losses.last().unwrap() < report.epoch_losses.first().unwrap(),
            "{:?}",
            report.epoch_losses
        );
        let acc = evaluate(&mut mlp, &params, &test, 20).unwrap();
        assert!(acc > 0.3, "test accuracy only {acc}"); // chance = 0.1
        assert!(report.final_train_acc > 0.6, "train accuracy only {}", report.final_train_acc);
    }

    #[test]
    fn degenerate_configs_rejected() {
        let (mut mlp, mut params, train, _) = tiny_setup();
        let cases: [Corruption; 12] = [
            ("zero epochs", |c| c.epochs = 0),
            ("zero batch", |c| c.batch_size = 0),
            ("NaN lr", |c| c.lr = f32::NAN),
            ("infinite lr", |c| c.lr = f32::INFINITY),
            ("zero lr", |c| c.lr = 0.0),
            ("negative lr", |c| c.lr = -1e-3),
            ("NaN momentum", |c| c.momentum = f32::NAN),
            ("momentum 1", |c| c.momentum = 1.0),
            ("negative momentum", |c| c.momentum = -0.1),
            ("NaN weight decay", |c| c.weight_decay = f32::NAN),
            ("infinite weight decay", |c| c.weight_decay = f32::INFINITY),
            ("negative weight decay", |c| c.weight_decay = -5e-4),
        ];
        for (name, corrupt) in cases {
            let mut cfg = TrainConfig::paper(1, 0);
            corrupt(&mut cfg);
            // a hook that never fires counts the forward passes
            let mut probe = crate::NanFault::once_at(usize::MAX);
            let err = pretrain(&mut mlp, &mut params, &train, &cfg, &mut probe).unwrap_err();
            assert!(
                matches!(err, TrainError::Tensor(TensorError::InvalidArgument(_))),
                "{name}: {err}"
            );
            assert_eq!(probe.passes(), 0, "{name}: rejected only after training began");
        }
    }

    #[test]
    fn flip_batch_reverses_rows() {
        let images = membit_tensor::Tensor::from_fn(&[1, 1, 1, 4], |i| i as f32);
        // force the coin to flip by trying seeds until one flips
        for seed in 0..20 {
            let mut rng = Rng::from_seed(seed);
            let flipped = flip_batch(&images, &mut rng);
            if flipped != images {
                assert_eq!(flipped.as_slice(), &[3.0, 2.0, 1.0, 0.0]);
                return;
            }
        }
        panic!("no seed produced a flip");
    }

    #[test]
    fn evaluation_is_deterministic_without_noise() {
        let (mut mlp, params, _, test) = tiny_setup();
        let a = evaluate(&mut mlp, &params, &test, 16).unwrap();
        let b = evaluate(&mut mlp, &params, &test, 16).unwrap();
        assert_eq!(a, b);
    }
}
