//! A small multilayer perceptron with the same crossbar-hook contract as
//! [`Vgg`](crate::Vgg) — used for fast tests and microbenchmarks.

use membit_autograd::{Tape, VarId};
use membit_tensor::Rng;

use crate::batchnorm::BatchNorm;
use crate::hooks::MvmNoiseHook;
use crate::linear::Linear;
use crate::params::{Binding, Params};
use crate::{Phase, Result};

/// Architecture of an [`Mlp`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MlpConfig {
    /// Input feature count.
    pub in_dim: usize,
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
    /// Activation quantization levels.
    pub act_levels: usize,
    /// Whether hidden weights are binarized.
    pub binary_weights: bool,
}

impl MlpConfig {
    /// A BWNN-style MLP: binary hidden weights, 9-level activations.
    pub fn new(in_dim: usize, hidden: &[usize], num_classes: usize) -> Self {
        Self {
            in_dim,
            hidden: hidden.to_vec(),
            num_classes,
            act_levels: 9,
            binary_weights: true,
        }
    }

    /// Number of crossbar (hooked) layers — every hidden layer.
    pub fn crossbar_layers(&self) -> usize {
        self.hidden.len()
    }
}

/// `linear → BN → tanh → quantize` blocks followed by a digital
/// classifier. Every hidden MVM output passes through the
/// [`MvmNoiseHook`], so the GBO machinery can be tested end-to-end in
/// milliseconds.
#[derive(Debug, Clone)]
pub struct Mlp {
    config: MlpConfig,
    hidden: Vec<Linear>,
    bns: Vec<BatchNorm>,
    classifier: Linear,
}

impl Mlp {
    /// Builds the model, registering parameters into `params`.
    ///
    /// # Errors
    ///
    /// Propagates parameter registration errors (none today; reserved).
    pub fn new(config: &MlpConfig, params: &mut Params, rng: &mut Rng) -> Result<Self> {
        let mut hidden = Vec::with_capacity(config.hidden.len());
        let mut bns = Vec::with_capacity(config.hidden.len());
        let mut in_dim = config.in_dim;
        for (i, &width) in config.hidden.iter().enumerate() {
            hidden.push(Linear::new(
                &format!("mlp{i}"),
                in_dim,
                width,
                false,
                config.binary_weights,
                params,
                rng,
            ));
            bns.push(BatchNorm::new(&format!("mlp_bn{i}"), width, params));
            in_dim = width;
        }
        let classifier = Linear::new(
            "mlp_classifier",
            in_dim,
            config.num_classes,
            true,
            false,
            params,
            rng,
        );
        Ok(Self {
            config: config.clone(),
            hidden,
            bns,
            classifier,
        })
    }

    /// The architecture description.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// Number of crossbar (hooked) layers.
    pub fn crossbar_layers(&self) -> usize {
        self.config.crossbar_layers()
    }

    /// Effective fan-in of each crossbar layer's MVM (see
    /// [`Vgg::crossbar_fan_ins`](crate::Vgg::crossbar_fan_ins)).
    pub fn crossbar_fan_ins(&self) -> Vec<f32> {
        self.hidden.iter().map(|l| l.in_features() as f32).collect()
    }

    /// Running statistics of every batch-norm layer, keyed by layer name —
    /// part of the checkpoint alongside [`Params`] (mirrors
    /// [`Vgg::running_stats`](crate::Vgg::running_stats)).
    pub fn running_stats(
        &self,
    ) -> Vec<(String, membit_tensor::Tensor, membit_tensor::Tensor)> {
        self.bns
            .iter()
            .enumerate()
            .map(|(i, bn)| {
                (
                    format!("mlp_bn{i}"),
                    bn.running_mean().clone(),
                    bn.running_var().clone(),
                )
            })
            .collect()
    }

    /// Restores running statistics saved by
    /// [`running_stats`](Self::running_stats). Unknown names are ignored.
    pub fn set_running_stats(
        &mut self,
        stats: &[(String, membit_tensor::Tensor, membit_tensor::Tensor)],
    ) {
        for (name, mean, var) in stats {
            if let Some(idx) = name
                .strip_prefix("mlp_bn")
                .and_then(|s| s.parse::<usize>().ok())
            {
                if idx < self.bns.len() {
                    self.bns[idx].set_running_stats(mean.clone(), var.clone());
                }
            }
        }
    }

    /// Runs the network on `x` (`[N, in_dim]`), returning logits.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn forward(
        &mut self,
        tape: &mut Tape,
        params: &Params,
        binding: &mut Binding,
        x: VarId,
        phase: Phase,
        hook: &mut dyn MvmNoiseHook,
    ) -> Result<VarId> {
        let mut h = x;
        for i in 0..self.hidden.len() {
            h = hook.encode(tape, i, h)?;
            h = self.hidden[i].forward(tape, params, binding, h)?;
            h = hook.apply(tape, i, h)?;
            h = self.bns[i].forward(tape, params, binding, h, phase)?;
            h = tape.tanh(h);
            h = tape.quantize_ste(h, self.config.act_levels)?;
        }
        self.classifier.forward(tape, params, binding, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoNoise;
    use membit_tensor::Tensor;

    #[test]
    fn forward_shapes_and_hook_indices() {
        struct Recorder(Vec<usize>);
        impl MvmNoiseHook for Recorder {
            fn apply(&mut self, _t: &mut Tape, l: usize, v: VarId) -> Result<VarId> {
                self.0.push(l);
                Ok(v)
            }
        }
        let mut params = Params::new();
        let mut rng = Rng::from_seed(0);
        let cfg = MlpConfig::new(6, &[10, 8], 3);
        assert_eq!(cfg.crossbar_layers(), 2);
        let mut mlp = Mlp::new(&cfg, &mut params, &mut rng).unwrap();
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[4, 6]));
        let mut binding = params.binding();
        let mut rec = Recorder(Vec::new());
        let y = mlp
            .forward(&mut tape, &params, &mut binding, x, Phase::Train, &mut rec)
            .unwrap();
        assert_eq!(tape.value(y).shape(), &[4, 3]);
        assert_eq!(rec.0, vec![0, 1]);
    }

    #[test]
    fn gradients_flow_to_all_parameters() {
        let mut params = Params::new();
        let mut rng = Rng::from_seed(1);
        let cfg = MlpConfig::new(4, &[6], 3);
        let mut mlp = Mlp::new(&cfg, &mut params, &mut rng).unwrap();
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_fn(&[2, 4], |i| (i as f32) * 0.1));
        let mut binding = params.binding();
        let logits = mlp
            .forward(&mut tape, &params, &mut binding, x, Phase::Train, &mut NoNoise)
            .unwrap();
        let loss = tape.softmax_cross_entropy(logits, &[0, 2]).unwrap();
        tape.backward(loss).unwrap();
        let mut with_grad = 0;
        for (_, v) in binding.bound() {
            if tape.grad(v).is_some() {
                with_grad += 1;
            }
        }
        assert_eq!(with_grad, params.len());
    }
}
