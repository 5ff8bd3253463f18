//! Gradient-based Bit encoding Optimization (GBO) — paper §III-A.
//!
//! Weights are frozen; per crossbar layer `l` a logit vector `λ^l ∈ ℝ^m`
//! over the pulse-scaling set `Ω` is the only trainable state. Each
//! forward pass mixes, per layer, `m` independent noise samples with
//! variances `σ_l²/(n_k·p)` weighted by `α^l = softmax(λ^l)` (Eq. 5); the
//! loss is cross-entropy plus the latency regularizer
//! `γ·Σ_l Σ_k α_k^l·n_k^l·p` (Eq. 6). At the end, each layer deploys the
//! encoding with the largest logit (Eq. after 7).

use membit_autograd::{Tape, VarId};
use membit_data::Dataset;
use membit_nn::{
    Adam, Checkpoint, MvmNoiseHook, Optimizer, ParamId, Params, Phase, Result as NnResult,
};
use membit_tensor::{Rng, RngStream, Tensor, TensorError};

use crate::calibrate::NoiseCalibration;
use crate::memse::MemseNetwork;
use crate::model::CrossbarModel;
use crate::resilience::{
    put_params, put_rng, put_state, restore_params, restore_rng, run_epochs, take_state,
    EpochLoop, EpochRun, ResilienceConfig,
};
use crate::watchdog::TrainWatchdog;
use crate::Result;

/// Hyperparameters of the GBO search.
#[derive(Debug, Clone, PartialEq)]
pub struct GboConfig {
    /// Pulse scaling set Ω (paper: `[0.5, 0.75, 1, 1.25, 1.5, 1.75, 2]`).
    pub omega: Vec<f32>,
    /// Base thermometer pulse count `p` (paper: 8).
    pub base_pulses: usize,
    /// Latency/accuracy trade-off weight γ of Eq. 6.
    pub gamma: f32,
    /// Search epochs (paper: 10).
    pub epochs: usize,
    /// Adam learning rate for λ (paper: 1e-4; at this simulator's scale a
    /// larger default converges within the short search budget).
    pub lr: f32,
    /// Minibatch size.
    pub batch_size: usize,
    /// Root RNG seed for noise sampling and shuffling.
    pub seed: u64,
    /// **Extension beyond the paper**: when set to the per-layer
    /// effective fan-ins (e.g. [`membit_nn::Vgg::crossbar_fan_ins`]), the
    /// per-branch mixture variance becomes
    /// `σ_l²/(n_k·p) + fan_in_l·MSE(q_k)` where `MSE(q)` is the PLA
    /// representation error of a `q`-pulse code over the activation
    /// grid — letting the search *see* that non-exact pulse budgets trade
    /// noise suppression against approximation error. `None` reproduces
    /// the paper's Eq. 5 exactly.
    pub snap_error_fan_in: Option<Vec<f32>>,
}

impl GboConfig {
    /// The paper's search space: Ω as above, `p = 8` ⇒ pulse lengths
    /// `{4, 6, 8, 10, 12, 14, 16}`.
    pub fn paper(gamma: f32, seed: u64) -> Self {
        Self {
            omega: vec![0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0],
            base_pulses: 8,
            gamma,
            epochs: 10,
            lr: 0.05,
            batch_size: 50,
            seed,
            snap_error_fan_in: None,
        }
    }

    /// The pulse length each Ω entry deploys: `round(n_k·p)`.
    pub fn pulse_lengths(&self) -> Vec<usize> {
        self.omega
            .iter()
            .map(|&n| (n * self.base_pulses as f32).round().max(1.0) as usize)
            .collect()
    }

    fn validate(&self, layers: usize) -> Result<()> {
        let positive = |v: f32| v.is_finite() && v > 0.0;
        let non_negative = |v: f32| v.is_finite() && v >= 0.0;
        let problem = if self.omega.is_empty() {
            "Ω must contain at least one scaling factor"
        } else if !self.omega.iter().all(|&n| positive(n)) {
            "Ω entries must be finite and positive"
        } else if self.base_pulses == 0 || self.epochs == 0 || self.batch_size == 0 || layers == 0
        {
            "base_pulses, epochs, batch_size and layer count must be nonzero"
        } else if !positive(self.lr) {
            "lr must be finite and positive"
        } else if !non_negative(self.gamma) {
            "gamma must be finite and non-negative"
        } else if !self.snap_error_fan_in.iter().flatten().all(|&f| non_negative(f)) {
            "snap_error_fan_in entries must be finite and non-negative"
        } else {
            return Ok(());
        };
        Err(TensorError::InvalidArgument(problem.into()).into())
    }
}

/// Outcome of a GBO search.
#[derive(Debug, Clone, PartialEq)]
pub struct GboResult {
    /// Final logits, one `[m]` vector per layer.
    pub lambdas: Vec<Vec<f32>>,
    /// Per-layer selected pulse scaling factor `n_optimal`.
    pub selected_scale: Vec<f32>,
    /// Per-layer deployed pulse count `round(n·p)` — the paper's
    /// "# pulses in each layer" column.
    pub selected_pulses: Vec<usize>,
    /// Mean total loss per epoch.
    pub epoch_losses: Vec<f32>,
}

impl GboResult {
    /// Average deployed pulse count (the paper's "Avg.# pulses").
    pub fn avg_pulses(&self) -> f32 {
        self.selected_pulses.iter().sum::<usize>() as f32
            / self.selected_pulses.len().max(1) as f32
    }
}

/// The live hook used during search: binds λ, computes α, and applies the
/// Eq. 5 noise mixture at every crossbar layer.
struct GboSearchHook<'a> {
    lambda_store: &'a Params,
    lambda_ids: &'a [ParamId],
    binding: &'a mut membit_nn::Binding,
    sigma_abs: &'a [f32],
    omega: &'a [f32],
    base_pulses: usize,
    /// Per-layer, per-branch additive variance from PLA representation
    /// error (all zeros when the snap-error extension is disabled).
    snap_var: &'a [Vec<f32>],
    rng: &'a mut Rng,
    alpha_vars: Vec<Option<VarId>>,
}

impl MvmNoiseHook for GboSearchHook<'_> {
    fn apply(&mut self, tape: &mut Tape, layer: usize, mvm_out: VarId) -> NnResult<VarId> {
        let lam = self
            .lambda_store
            .bind(tape, self.binding, self.lambda_ids[layer]);
        let alpha = tape.softmax1d(lam)?;
        self.alpha_vars[layer] = Some(alpha);
        let shape = tape.value(mvm_out).shape().to_vec();
        let eps: Vec<Tensor> = self
            .omega
            .iter()
            .enumerate()
            .map(|(k, &n)| {
                let s = self.sigma_abs[layer];
                let var = s * s / (n * self.base_pulses as f32) + self.snap_var[layer][k];
                self.rng.normal_tensor(&shape, 0.0, var.sqrt())
            })
            .collect();
        tape.mix_noise(mvm_out, alpha, eps)
    }
}

/// Runs GBO searches against a frozen pre-trained model.
#[derive(Debug)]
pub struct GboTrainer {
    config: GboConfig,
    lambda_store: Params,
    lambda_ids: Vec<ParamId>,
}

impl GboTrainer {
    /// Creates a trainer with zero-initialized λ for `layers` crossbar
    /// layers.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors.
    pub fn new(layers: usize, config: GboConfig) -> Result<Self> {
        config.validate(layers)?;
        let m = config.omega.len();
        let mut lambda_store = Params::new();
        let lambda_ids = (0..layers)
            .map(|l| lambda_store.register(format!("lambda{l}"), Tensor::zeros(&[m])))
            .collect();
        Ok(Self {
            config,
            lambda_store,
            lambda_ids,
        })
    }

    /// The search configuration.
    pub fn config(&self) -> &GboConfig {
        &self.config
    }

    /// Current λ values (one vector per layer).
    pub fn lambdas(&self) -> Vec<Vec<f32>> {
        self.lambda_ids
            .iter()
            .map(|&id| self.lambda_store.get(id).as_slice().to_vec())
            .collect()
    }

    /// Runs the search: `epochs` passes over `train` updating only λ with
    /// Adam, weights (and batch-norm statistics) frozen.
    ///
    /// `calibration` supplies the per-layer absolute noise for
    /// `paper_sigma`.
    ///
    /// # Errors
    ///
    /// Propagates tape/shape errors and calibration/layer-count
    /// mismatches.
    pub fn search(
        &mut self,
        model: &mut dyn CrossbarModel,
        params: &Params,
        train: &Dataset,
        calibration: &NoiseCalibration,
        paper_sigma: f32,
    ) -> Result<GboResult> {
        self.search_resilient(
            model,
            params,
            train,
            calibration,
            paper_sigma,
            &ResilienceConfig::default(),
        )
    }

    /// Analytic MemSE search: per-layer coordinate descent over
    /// [`GboConfig::pulse_lengths`] minimizing the closed-form
    /// `disagreement + γ·Σ q` objective
    /// ([`MemseNetwork::analytic_search`]) — deterministic,
    /// sampling-free, and orders of magnitude faster than the
    /// Monte-Carlo path.
    ///
    /// λ is left one-hot on the selected branch per layer so
    /// [`lambdas`](Self::lambdas) and downstream argmax deployment agree
    /// with the selection; `epoch_losses` carries the per-sweep
    /// objective trace.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] on a layer-count
    /// mismatch; propagates walk errors.
    pub fn search_analytic(&mut self, net: &MemseNetwork) -> Result<GboResult> {
        let layers = self.lambda_ids.len();
        if net.crossbar_ops() != layers {
            return Err(TensorError::InvalidArgument(format!(
                "layer count mismatch: trainer {layers}, analytic network {}",
                net.crossbar_ops()
            ))
            .into());
        }
        let lengths = self.config.pulse_lengths();
        let selection = net.analytic_search(&lengths, self.config.gamma)?;
        let m = self.config.omega.len();
        for (l, &q) in selection.pulses.iter().enumerate() {
            let k = lengths
                .iter()
                .position(|&c| c == q)
                .expect("selection drawn from the candidate set");
            let mut one_hot = vec![0.0f32; m];
            one_hot[k] = 1.0;
            *self.lambda_store.get_mut(self.lambda_ids[l]) = Tensor::from_vec(one_hot, &[m])?;
        }
        Ok(self.result(selection.sweep_objectives))
    }

    /// [`search`](Self::search) with an explicit resilience policy:
    /// watchdog-guarded rollback of the λ optimization, per-epoch atomic
    /// checkpoints of λ / Adam moments / RNG streams, and `--resume`
    /// restore — the same epoch loop [`pretrain_resilient`] runs on.
    ///
    /// # Errors
    ///
    /// As [`search`](Self::search), plus checkpoint errors and
    /// [`TrainError::Diverged`](crate::TrainError::Diverged) on
    /// unrecoverable divergence.
    ///
    /// [`pretrain_resilient`]: crate::pretrain_resilient
    pub fn search_resilient(
        &mut self,
        model: &mut dyn CrossbarModel,
        params: &Params,
        train: &Dataset,
        calibration: &NoiseCalibration,
        paper_sigma: f32,
        res: &ResilienceConfig,
    ) -> Result<GboResult> {
        let layers = self.lambda_ids.len();
        if model.crossbar_layers() != layers || calibration.layers() != layers {
            return Err(TensorError::InvalidArgument(format!(
                "layer count mismatch: trainer {layers}, model {}, calibration {}",
                model.crossbar_layers(),
                calibration.layers()
            ))
            .into());
        }
        let snap_var = self.snap_variances()?;
        let costs: Vec<f32> = self
            .config
            .omega
            .iter()
            .map(|&n| n * self.config.base_pulses as f32)
            .collect();
        let root = Rng::from_seed(self.config.seed);
        let epochs = self.config.epochs;
        let mut lp = SearchLoop {
            cost_tensor: Tensor::from_vec(costs, &[self.config.omega.len()])?,
            opt: Adam::new(self.config.lr),
            trainer: self,
            model,
            params,
            train,
            sigma_abs: calibration.sigma_abs(paper_sigma),
            snap_var,
            shuffle_rng: root.stream(RngStream::Data),
            noise_rng: root.stream(RngStream::Noise),
        };
        let log = run_epochs("gbo", epochs, res, &mut lp)?;
        Ok(self.result(log.losses))
    }

    /// Per-layer, per-branch additive variance from the PLA
    /// representation error (zeros unless the snap-error extension is
    /// configured).
    fn snap_variances(&self) -> Result<Vec<Vec<f32>>> {
        let layers = self.lambda_ids.len();
        let m = self.config.omega.len();
        let Some(fan_ins) = &self.config.snap_error_fan_in else {
            return Ok(vec![vec![0.0; m]; layers]);
        };
        if fan_ins.len() != layers {
            return Err(TensorError::InvalidArgument(format!(
                "snap_error_fan_in covers {} layers, trainer has {layers}",
                fan_ins.len()
            ))
            .into());
        }
        let levels = self.config.base_pulses + 1;
        let mut per_branch_mse = Vec::with_capacity(m);
        for &n in &self.config.omega {
            let q = (n * self.config.base_pulses as f32).round().max(1.0) as usize;
            let mse = if q.is_multiple_of(self.config.base_pulses) {
                0.0
            } else {
                let pla = membit_encoding::pla::PlaThermometer::new(levels, q)?;
                let total: f32 = (0..levels)
                    .map(|k| {
                        let v = k as f32 / (levels - 1) as f32 * 2.0 - 1.0;
                        (pla.approximate(v) - v).powi(2)
                    })
                    .sum();
                total / levels as f32
            };
            per_branch_mse.push(mse);
        }
        Ok(fan_ins
            .iter()
            .map(|&f| per_branch_mse.iter().map(|&mse| f * mse).collect())
            .collect())
    }

    /// Extracts the deployed configuration from the current λ.
    fn result(&self, epoch_losses: Vec<f32>) -> GboResult {
        let lambdas = self.lambdas();
        let mut selected_scale = Vec::with_capacity(lambdas.len());
        let mut selected_pulses = Vec::with_capacity(lambdas.len());
        for lam in &lambdas {
            let best = lam
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)
                .unwrap_or(0);
            let n = self.config.omega[best];
            selected_scale.push(n);
            selected_pulses.push((n * self.config.base_pulses as f32).round().max(1.0) as usize);
        }
        GboResult {
            lambdas,
            selected_scale,
            selected_pulses,
            epoch_losses,
        }
    }
}

/// The λ optimization of one search: the state it carries from epoch
/// to epoch, and the frozen model it scores against.
struct SearchLoop<'a> {
    trainer: &'a mut GboTrainer,
    model: &'a mut dyn CrossbarModel,
    params: &'a Params,
    train: &'a Dataset,
    sigma_abs: Vec<f32>,
    snap_var: Vec<Vec<f32>>,
    cost_tensor: Tensor,
    opt: Adam,
    shuffle_rng: Rng,
    noise_rng: Rng,
}

impl EpochLoop for SearchLoop<'_> {
    fn save(&self, ckpt: &mut Checkpoint) {
        put_rng(ckpt, "shuffle", &self.shuffle_rng);
        put_rng(ckpt, "noise", &self.noise_rng);
        put_params(ckpt, &self.trainer.lambda_store);
        put_state(ckpt, "opt", self.opt.state_tensors());
    }

    fn load(&mut self, ckpt: &Checkpoint) -> Result<()> {
        restore_params(ckpt, &mut self.trainer.lambda_store)?;
        self.opt = Adam::new(self.trainer.config.lr);
        self.opt.restore_state_tensors(&take_state(ckpt, "opt"));
        self.shuffle_rng = restore_rng(ckpt, "shuffle")?;
        self.noise_rng = restore_rng(ckpt, "noise")?;
        Ok(())
    }

    /// One pass over the (re-shuffled) search set. Returns `Tripped` the
    /// moment the watchdog flags the loss or the λ gradients.
    fn run_epoch(
        &mut self,
        _epoch: usize,
        lr_scale: f32,
        watchdog: &mut TrainWatchdog,
    ) -> Result<EpochRun> {
        let trainer = &mut *self.trainer;
        let config = &trainer.config;
        self.opt.set_lr(config.lr * lr_scale);
        let layers = trainer.lambda_ids.len();
        let shuffled = self.train.shuffled(&mut self.shuffle_rng);
        let mut loss_sum = 0.0f64;
        let mut batches = 0usize;
        for (images, labels) in shuffled.batches(config.batch_size) {
            let mut tape = Tape::new();
            let mut weight_binding = self.params.frozen_binding();
            let mut lambda_binding = trainer.lambda_store.binding();
            let x = tape.constant(images);
            // The hook borrows the λ store and binding for the
            // duration of the forward + loss construction.
            {
                let mut hook = GboSearchHook {
                    lambda_store: &trainer.lambda_store,
                    lambda_ids: &trainer.lambda_ids,
                    binding: &mut lambda_binding,
                    sigma_abs: &self.sigma_abs,
                    omega: &config.omega,
                    base_pulses: config.base_pulses,
                    snap_var: &self.snap_var,
                    rng: &mut self.noise_rng,
                    alpha_vars: vec![None; layers],
                };
                let logits = self.model.forward(
                    &mut tape,
                    self.params,
                    &mut weight_binding,
                    x,
                    Phase::Eval,
                    &mut hook,
                )?;
                // latency term: γ · Σ_l ⟨α^l, n·p⟩
                let mut latency: Option<VarId> = None;
                for alpha in hook.alpha_vars.iter().flatten() {
                    let term = tape.dot_const(*alpha, &self.cost_tensor)?;
                    latency = Some(match latency {
                        Some(acc) => tape.add(acc, term)?,
                        None => term,
                    });
                }
                let ce = tape.softmax_cross_entropy(logits, &labels)?;
                let loss = match latency {
                    Some(lat) => {
                        let weighted = tape.mul_scalar(lat, config.gamma);
                        tape.add(ce, weighted)?
                    }
                    None => ce,
                };
                let loss_value = tape.value(loss).item();
                if let Some(reason) = watchdog.observe(loss_value) {
                    return Ok(EpochRun::Tripped(reason));
                }
                loss_sum += f64::from(loss_value);
                batches += 1;
                tape.backward(loss)?;
            }
            if let Some(reason) = watchdog.check_grads(&tape, &lambda_binding) {
                return Ok(EpochRun::Tripped(reason));
            }
            self.opt
                .step(&mut trainer.lambda_store, &tape, &lambda_binding)?;
        }
        Ok(EpochRun::Done((loss_sum / batches.max(1) as f64) as f32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::calibrate_noise;
    use crate::TrainError;
    use crate::trainer::{pretrain, TrainConfig};
    use membit_data::{synth_cifar, SynthCifarConfig};
    use membit_nn::{Mlp, MlpConfig, NoNoise};

    /// A named way to break one config field.
    type Corruption = (&'static str, fn(&mut GboConfig));

    #[test]
    fn config_validation_and_pulse_lengths() {
        let cfg = GboConfig::paper(0.001, 0);
        assert_eq!(cfg.pulse_lengths(), vec![4, 6, 8, 10, 12, 14, 16]);
        assert!(GboTrainer::new(0, cfg.clone()).is_err());
        let cases: [Corruption; 15] = [
            ("empty Ω", |c| c.omega.clear()),
            ("negative Ω", |c| c.omega[0] = -1.0),
            ("zero Ω", |c| c.omega[0] = 0.0),
            ("NaN Ω", |c| c.omega[3] = f32::NAN),
            ("infinite Ω", |c| c.omega[6] = f32::INFINITY),
            ("NaN lr", |c| c.lr = f32::NAN),
            ("infinite lr", |c| c.lr = f32::INFINITY),
            ("zero lr", |c| c.lr = 0.0),
            ("negative lr", |c| c.lr = -0.05),
            ("NaN gamma", |c| c.gamma = f32::NAN),
            ("infinite gamma", |c| c.gamma = f32::INFINITY),
            ("negative gamma", |c| c.gamma = -1e-3),
            ("NaN fan-in", |c| c.snap_error_fan_in = Some(vec![72.0, f32::NAN])),
            ("infinite fan-in", |c| c.snap_error_fan_in = Some(vec![f32::INFINITY, 72.0])),
            ("negative fan-in", |c| c.snap_error_fan_in = Some(vec![72.0, -1.0])),
        ];
        for (name, corrupt) in cases {
            let mut bad = cfg.clone();
            corrupt(&mut bad);
            let err = GboTrainer::new(2, bad).unwrap_err();
            assert!(
                matches!(err, TrainError::Tensor(TensorError::InvalidArgument(_))),
                "{name}: {err}"
            );
        }
    }

    #[test]
    fn huge_gamma_collapses_to_shortest_pulses() {
        // With an enormous latency weight, the CE term is irrelevant and
        // every layer must pick the cheapest encoding (n = 0.5 ⇒ 4 pulses).
        let mut rng = Rng::from_seed(0);
        let mut params = Params::new();
        let mut mlp = Mlp::new(
            &MlpConfig::new(3 * 8 * 8, &[16, 12], 10),
            &mut params,
            &mut rng,
        )
        .unwrap();
        let (train, _) = synth_cifar(&SynthCifarConfig::tiny(), 3).unwrap();
        let cal = calibrate_noise(&mut mlp, &params, &train, 20, 2, 10.0).unwrap();
        let mut cfg = GboConfig::paper(10.0, 1);
        cfg.epochs = 4;
        cfg.batch_size = 40;
        cfg.lr = 0.2;
        let mut trainer = GboTrainer::new(2, cfg).unwrap();
        let result = trainer
            .search(&mut mlp, &params, &train, &cal, 10.0)
            .unwrap();
        assert_eq!(result.selected_pulses, vec![4, 4], "{:?}", result.lambdas);
        assert_eq!(result.avg_pulses(), 4.0);
    }

    #[test]
    fn zero_gamma_under_heavy_noise_prefers_long_pulses() {
        // With γ = 0 and strong noise, longer codes strictly reduce the CE
        // loss, so λ should drift toward n = 2 (16 pulses).
        let mut rng = Rng::from_seed(0);
        let mut params = Params::new();
        let mut mlp = Mlp::new(
            &MlpConfig::new(3 * 8 * 8, &[16], 10),
            &mut params,
            &mut rng,
        )
        .unwrap();
        let (train, _) = synth_cifar(&SynthCifarConfig::tiny(), 3).unwrap();
        // train briefly so the CE landscape is informative
        let tc = TrainConfig {
            epochs: 20,
            batch_size: 20,
            lr: 2e-2,
            momentum: 0.9,
            weight_decay: 0.0,
            augment_flip: false,
            seed: 2,
        };
        pretrain(&mut mlp, &mut params, &train, &tc, &mut NoNoise).unwrap();
        let cal = calibrate_noise(&mut mlp, &params, &train, 20, 2, 10.0).unwrap();
        let mut cfg = GboConfig::paper(0.0, 1);
        cfg.epochs = 6;
        cfg.batch_size = 40;
        cfg.lr = 0.2;
        let mut trainer = GboTrainer::new(1, cfg).unwrap();
        // very strong noise: paper σ of 30 ⇒ 3× the layer RMS
        let result = trainer
            .search(&mut mlp, &params, &train, &cal, 30.0)
            .unwrap();
        assert!(
            result.selected_pulses[0] >= 10,
            "selected {:?}, λ {:?}",
            result.selected_pulses,
            result.lambdas
        );
        // the cheapest (noisiest) encodings must rank below the selected one
        let lam = &result.lambdas[0];
        let max = lam.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        assert!(lam[0] < max && lam[1] < max, "λ {lam:?}");
    }

    #[test]
    fn layer_count_mismatch_rejected() {
        let mut rng = Rng::from_seed(0);
        let mut params = Params::new();
        let mut mlp = Mlp::new(&MlpConfig::new(8, &[4], 2), &mut params, &mut rng).unwrap();
        let cal = NoiseCalibration::new(vec![1.0, 1.0], 10.0).unwrap();
        let (train, _) = synth_cifar(&SynthCifarConfig::tiny(), 0).unwrap();
        let mut trainer = GboTrainer::new(3, GboConfig::paper(0.0, 0)).unwrap();
        assert!(trainer
            .search(&mut mlp, &params, &train, &cal, 10.0)
            .is_err());
    }

    #[test]
    fn lambdas_start_at_zero() {
        let trainer = GboTrainer::new(2, GboConfig::paper(0.001, 0)).unwrap();
        for lam in trainer.lambdas() {
            assert_eq!(lam, vec![0.0; 7]);
        }
    }
}
