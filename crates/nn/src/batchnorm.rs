//! Batch normalization layer with running statistics.

use membit_autograd::{Tape, VarId};
use membit_tensor::Tensor;

use crate::params::{Binding, ParamId, Params};
use crate::{Phase, Result};

/// Channel batch normalization for `[N, C]` or `[N, C, H, W]` tensors.
///
/// Training mode normalizes with batch statistics and folds them into
/// exponential running averages; evaluation mode uses the running
/// statistics (the configuration frozen during the GBO search).
#[derive(Debug, Clone)]
pub struct BatchNorm {
    gamma: ParamId,
    beta: ParamId,
    running_mean: Tensor,
    running_var: Tensor,
    momentum: f32,
    eps: f32,
    channels: usize,
}

impl BatchNorm {
    /// Creates the layer with γ=1, β=0, running stats (0, 1).
    pub fn new(name: &str, channels: usize, params: &mut Params) -> Self {
        let gamma = params.register(format!("{name}.gamma"), Tensor::ones(&[channels]));
        let beta = params.register(format!("{name}.beta"), Tensor::zeros(&[channels]));
        Self {
            gamma,
            beta,
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            momentum: 0.1,
            eps: 1e-5,
            channels,
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Current running mean (for checkpointing).
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// Current running variance (for checkpointing).
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }

    /// Overwrites the running statistics (checkpoint restore).
    ///
    /// # Panics
    ///
    /// Panics on a channel-count mismatch.
    pub fn set_running_stats(&mut self, mean: Tensor, var: Tensor) {
        assert_eq!(mean.shape(), [self.channels]);
        assert_eq!(var.shape(), [self.channels]);
        self.running_mean = mean;
        self.running_var = var;
    }

    /// Folds the evaluation-mode transform into per-channel `(scale,
    /// shift)` vectors: `y = x·s + t` with `s = γ/√(σ²+ε)`,
    /// `t = β − μ·s`. Used when deploying the network onto hardware
    /// (digital peripheral logic next to the crossbar).
    pub fn fold_eval(&self, params: &Params) -> (Tensor, Tensor) {
        let gamma = params.get(self.gamma);
        let beta = params.get(self.beta);
        let eps = self.eps;
        let scale = gamma
            .zip_map(&self.running_var, |g, v| g / (v + eps).sqrt())
            .expect("gamma/var same shape");
        let shift = beta
            .zip_map(
                &self.running_mean.zip_map(&scale, |m, s| m * s).expect("same shape"),
                |b, ms| b - ms,
            )
            .expect("beta same shape");
        (scale, shift)
    }

    /// Runs the layer. Training mode mutates the running statistics.
    ///
    /// # Errors
    ///
    /// Propagates shape errors (channel mismatch, rank < 2).
    pub fn forward(
        &mut self,
        tape: &mut Tape,
        params: &Params,
        binding: &mut Binding,
        x: VarId,
        phase: Phase,
    ) -> Result<VarId> {
        let gamma = params.bind(tape, binding, self.gamma);
        let beta = params.bind(tape, binding, self.beta);
        match phase {
            Phase::Train => {
                let (y, mean, var) = tape.batch_norm(x, gamma, beta, self.eps)?;
                let m = self.momentum;
                self.running_mean = self
                    .running_mean
                    .mul_scalar(1.0 - m)
                    .add(&mean.mul_scalar(m))?;
                self.running_var = self
                    .running_var
                    .mul_scalar(1.0 - m)
                    .add(&var.mul_scalar(m))?;
                Ok(y)
            }
            Phase::Eval => tape.batch_norm_inference(
                x,
                gamma,
                beta,
                &self.running_mean,
                &self.running_var,
                self.eps,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input() -> Tensor {
        Tensor::from_vec(vec![1.0, 5.0, 3.0, 5.0], &[2, 2]).unwrap()
    }

    #[test]
    fn train_normalizes_and_updates_running_stats() {
        let mut params = Params::new();
        let mut bn = BatchNorm::new("bn", 2, &mut params);
        let mut tape = Tape::new();
        let x = tape.constant(input());
        let mut binding = params.binding();
        let y = bn
            .forward(&mut tape, &params, &mut binding, x, Phase::Train)
            .unwrap();
        // batch means: [2, 5]; running = 0.9·0 + 0.1·batch
        assert!(bn
            .running_mean()
            .allclose(&Tensor::from_vec(vec![0.2, 0.5], &[2]).unwrap(), 1e-6));
        // channel 0 normalized: (1-2)/1 = -1, (3-2)/1 = 1
        let out = tape.value(y);
        assert!((out.get(&[0, 0]) + 1.0).abs() < 1e-2);
        assert!((out.get(&[1, 0]) - 1.0).abs() < 1e-2);
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut params = Params::new();
        let mut bn = BatchNorm::new("bn", 1, &mut params);
        bn.set_running_stats(
            Tensor::from_vec(vec![2.0], &[1]).unwrap(),
            Tensor::from_vec(vec![4.0], &[1]).unwrap(),
        );
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(vec![6.0], &[1, 1]).unwrap());
        let mut binding = params.binding();
        let y = bn
            .forward(&mut tape, &params, &mut binding, x, Phase::Eval)
            .unwrap();
        // (6−2)/2 = 2
        assert!((tape.value(y).item() - 2.0).abs() < 1e-3);
    }

    #[test]
    fn eval_does_not_touch_running_stats() {
        let mut params = Params::new();
        let mut bn = BatchNorm::new("bn", 2, &mut params);
        let before = bn.running_mean().clone();
        let mut tape = Tape::new();
        let x = tape.constant(input());
        let mut binding = params.binding();
        bn.forward(&mut tape, &params, &mut binding, x, Phase::Eval)
            .unwrap();
        assert_eq!(bn.running_mean(), &before);
    }

    #[test]
    #[should_panic]
    fn set_running_stats_checks_channels() {
        let mut params = Params::new();
        let mut bn = BatchNorm::new("bn", 2, &mut params);
        bn.set_running_stats(Tensor::zeros(&[3]), Tensor::ones(&[3]));
    }

    #[test]
    fn fold_eval_matches_forward() {
        let mut params = Params::new();
        let mut bn = BatchNorm::new("bn", 1, &mut params);
        bn.set_running_stats(
            Tensor::from_vec(vec![2.0], &[1]).unwrap(),
            Tensor::from_vec(vec![4.0], &[1]).unwrap(),
        );
        params.assign("bn.gamma", Tensor::from_vec(vec![3.0], &[1]).unwrap());
        params.assign("bn.beta", Tensor::from_vec(vec![0.5], &[1]).unwrap());
        let (scale, shift) = bn.fold_eval(&params);
        let x = 6.0f32;
        let folded = x * scale.item() + shift.item();
        // direct: (6−2)/2·3 + 0.5 = 6.5
        assert!((folded - 6.5).abs() < 1e-3);
    }

    #[test]
    fn works_on_nchw() {
        let mut params = Params::new();
        let mut bn = BatchNorm::new("bn", 3, &mut params);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_fn(&[2, 3, 4, 4], |i| i as f32));
        let mut binding = params.binding();
        let y = bn
            .forward(&mut tape, &params, &mut binding, x, Phase::Train)
            .unwrap();
        let out = tape.value(y);
        assert_eq!(out.shape(), &[2, 3, 4, 4]);
        // each channel of the output is zero-mean
        let means = out.mean_channels().unwrap();
        for &m in means.as_slice() {
            assert!(m.abs() < 1e-3);
        }
    }
}
