//! The VGG9 binary-weight network of the paper, with crossbar noise hooks.

use membit_autograd::{Tape, VarId};
use membit_tensor::{Rng, TensorError};

use crate::batchnorm::BatchNorm;
use crate::conv::Conv2d;
use crate::hooks::MvmNoiseHook;
use crate::linear::Linear;
use crate::params::{Binding, Params};
use crate::{Phase, Result};

/// Architecture description of a VGG-style BWNN.
///
/// The network is `conv[0..n]` (3×3, padding 1) with 2×2 max pools after
/// the convs listed in `pool_after`, then one hidden fully-connected layer
/// and a classifier. Every layer except the classifier is followed by
/// batch norm, `tanh`, and `act_levels`-level quantization — the paper's
/// BWNN recipe (binary weights, multi-bit activations).
///
/// **Crossbar layers** — the layers whose input activations are
/// pulse-encoded and whose MVM executes on a (noisy) crossbar — are
/// `conv[1..n]` plus the hidden FC layer: the first conv reads the raw
/// image and the classifier runs digitally, giving the `n` entries of the
/// paper's per-layer pulse table (7 for the paper's VGG9).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VggConfig {
    /// Input image channels.
    pub in_channels: usize,
    /// Input image height.
    pub in_h: usize,
    /// Input image width.
    pub in_w: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Output channels of each conv layer.
    pub channels: Vec<usize>,
    /// Conv indices (0-based) followed by a 2×2 max pool.
    pub pool_after: Vec<usize>,
    /// Width of the hidden fully-connected layer.
    pub fc_dim: usize,
    /// Activation quantization levels (9 in the paper ⇒ 8-pulse
    /// thermometer codes).
    pub act_levels: usize,
    /// Whether weights are binarized (the paper's setting).
    pub binary_weights: bool,
}

impl VggConfig {
    /// The paper's full-scale VGG9 for 3×32×32 CIFAR-10.
    pub fn paper() -> Self {
        Self {
            in_channels: 3,
            in_h: 32,
            in_w: 32,
            num_classes: 10,
            channels: vec![64, 64, 128, 128, 256, 256, 256],
            pool_after: vec![1, 3, 6],
            fc_dim: 1024,
            act_levels: 9,
            binary_weights: true,
        }
    }

    /// Channel-reduced VGG9 on 3×16×16 inputs — same topology and layer
    /// count as [`paper`](Self::paper) but sized to train on a single CPU
    /// core in minutes. This is the default experiment configuration.
    pub fn small() -> Self {
        Self {
            in_channels: 3,
            in_h: 16,
            in_w: 16,
            num_classes: 10,
            channels: vec![16, 16, 32, 32, 64, 64, 64],
            pool_after: vec![1, 3, 6],
            fc_dim: 128,
            act_levels: 9,
            binary_weights: true,
        }
    }

    /// A 3-conv miniature (still one FC + classifier) for fast unit tests.
    pub fn tiny() -> Self {
        Self {
            in_channels: 3,
            in_h: 8,
            in_w: 8,
            num_classes: 4,
            channels: vec![8, 8, 16],
            pool_after: vec![1, 2],
            fc_dim: 32,
            act_levels: 9,
            binary_weights: true,
        }
    }

    /// Number of crossbar (pulse-encoded) layers: `convs − 1 + 1` (the
    /// hidden FC). For [`paper`](Self::paper) this is 7, matching Table I.
    pub fn crossbar_layers(&self) -> usize {
        self.channels.len()
    }

    /// `[C, H, W]` of one input sample — what deployment pipelines and
    /// serving front-ends need to validate and reshape flat payloads.
    pub fn input_shape(&self) -> [usize; 3] {
        [self.in_channels, self.in_h, self.in_w]
    }

    /// Spatial side length after all pools (input must be divisible).
    fn final_spatial(&self) -> (usize, usize) {
        let d = 1usize << self.pool_after.len();
        (self.in_h / d, self.in_w / d)
    }

    /// Flattened feature count entering the hidden FC layer.
    pub fn feature_dim(&self) -> usize {
        let (h, w) = self.final_spatial();
        self.channels.last().copied().unwrap_or(0) * h * w
    }

    fn validate(&self) -> Result<()> {
        if self.channels.is_empty() {
            return Err(TensorError::InvalidArgument(
                "VggConfig needs at least one conv layer".into(),
            ));
        }
        if self.act_levels < 2 {
            return Err(TensorError::InvalidArgument(
                "act_levels must be ≥ 2".into(),
            ));
        }
        let d = 1usize << self.pool_after.len();
        if !self.in_h.is_multiple_of(d) || !self.in_w.is_multiple_of(d) {
            return Err(TensorError::InvalidArgument(format!(
                "input {}x{} not divisible by pool factor {d}",
                self.in_h, self.in_w
            )));
        }
        if let Some(&bad) = self.pool_after.iter().find(|&&i| i >= self.channels.len()) {
            return Err(TensorError::InvalidArgument(format!(
                "pool_after index {bad} out of range for {} convs",
                self.channels.len()
            )));
        }
        Ok(())
    }
}

/// The VGG9-BWNN model.
#[derive(Debug, Clone)]
pub struct Vgg {
    config: VggConfig,
    convs: Vec<Conv2d>,
    conv_bns: Vec<BatchNorm>,
    fc_hidden: Linear,
    fc_bn: BatchNorm,
    classifier: Linear,
}

impl Vgg {
    /// Builds the model, registering all parameters into `params`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for inconsistent configs
    /// (empty conv stack, indivisible pooling, ...).
    pub fn new(config: &VggConfig, params: &mut Params, rng: &mut Rng) -> Result<Self> {
        config.validate()?;
        let mut convs = Vec::with_capacity(config.channels.len());
        let mut conv_bns = Vec::with_capacity(config.channels.len());
        let mut in_ch = config.in_channels;
        for (i, &out_ch) in config.channels.iter().enumerate() {
            convs.push(Conv2d::new(
                &format!("conv{i}"),
                in_ch,
                out_ch,
                3,
                1,
                1,
                config.binary_weights,
                params,
                rng,
            ));
            conv_bns.push(BatchNorm::new(&format!("bn{i}"), out_ch, params));
            in_ch = out_ch;
        }
        let fc_hidden = Linear::new(
            "fc_hidden",
            config.feature_dim(),
            config.fc_dim,
            false,
            config.binary_weights,
            params,
            rng,
        );
        let fc_bn = BatchNorm::new("fc_bn", config.fc_dim, params);
        let classifier = Linear::new(
            "classifier",
            config.fc_dim,
            config.num_classes,
            true,
            false,
            params,
            rng,
        );
        Ok(Self {
            config: config.clone(),
            convs,
            conv_bns,
            fc_hidden,
            fc_bn,
            classifier,
        })
    }

    /// The architecture description.
    pub fn config(&self) -> &VggConfig {
        &self.config
    }

    /// Number of crossbar (hooked) layers.
    pub fn crossbar_layers(&self) -> usize {
        self.config.crossbar_layers()
    }

    /// Runs the network on `x` (`[N, C, H, W]`), returning class logits
    /// (`[N, num_classes]`).
    ///
    /// `hook` intercepts each crossbar layer's MVM output, indexed
    /// `0..crossbar_layers()`.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches between `x` and the configuration.
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
        for i in 0..self.convs.len() {
            if i > 0 {
                // conv0 reads the raw image digitally; conv1.. are crossbar
                // layers with pulse-encoded inputs.
                h = hook.encode(tape, i - 1, h)?;
            }
            h = self.convs[i].forward(tape, params, binding, h)?;
            if i > 0 {
                h = hook.apply(tape, i - 1, h)?;
            }
            h = self.conv_bns[i].forward(tape, params, binding, h, phase)?;
            h = tape.tanh(h);
            h = tape.quantize_ste(h, self.config.act_levels)?;
            if self.config.pool_after.contains(&i) {
                h = tape.max_pool2d(h, 2)?;
            }
        }
        let n = tape.value(h).shape()[0];
        let mut flat = tape.reshape(h, &[n, self.config.feature_dim()])?;
        flat = hook.encode(tape, self.convs.len() - 1, flat)?;
        let mut f = self.fc_hidden.forward(tape, params, binding, flat)?;
        f = hook.apply(tape, self.convs.len() - 1, f)?;
        f = self.fc_bn.forward(tape, params, binding, f, phase)?;
        f = tape.tanh(f);
        f = tape.quantize_ste(f, self.config.act_levels)?;
        self.classifier.forward(tape, params, binding, f)
    }

    /// Borrow the conv layers (for crossbar deployment).
    pub fn convs(&self) -> &[Conv2d] {
        &self.convs
    }

    /// Borrow the per-conv batch-norm layers (for crossbar deployment).
    pub fn conv_bns(&self) -> &[BatchNorm] {
        &self.conv_bns
    }

    /// Effective fan-in of each crossbar layer's MVM (inputs per output:
    /// `C·K²` for convs, `feature_dim` for the hidden FC). Used by
    /// encoding searches that model input-representation error, whose
    /// output-level variance scales with the fan-in under ±1 weights.
    pub fn crossbar_fan_ins(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.config.crossbar_layers());
        for i in 1..self.config.channels.len() {
            out.push((self.config.channels[i - 1] * 9) as f32);
        }
        out.push(self.config.feature_dim() as f32);
        out
    }

    /// Borrow the hidden-FC batch norm (for crossbar deployment).
    pub fn fc_bn(&self) -> &BatchNorm {
        &self.fc_bn
    }

    /// Borrow the hidden FC layer (for crossbar deployment).
    pub fn fc_hidden(&self) -> &Linear {
        &self.fc_hidden
    }

    /// Borrow the classifier layer.
    pub fn classifier(&self) -> &Linear {
        &self.classifier
    }

    /// Running statistics of every batch-norm layer, keyed by layer name —
    /// part of the checkpoint alongside [`Params`].
    pub fn running_stats(&self) -> Vec<(String, membit_tensor::Tensor, membit_tensor::Tensor)> {
        let mut out = Vec::new();
        for (i, bn) in self.conv_bns.iter().enumerate() {
            out.push((
                format!("bn{i}"),
                bn.running_mean().clone(),
                bn.running_var().clone(),
            ));
        }
        out.push((
            "fc_bn".into(),
            self.fc_bn.running_mean().clone(),
            self.fc_bn.running_var().clone(),
        ));
        out
    }

    /// Restores running statistics saved by
    /// [`running_stats`](Self::running_stats). Unknown names are ignored.
    pub fn set_running_stats(
        &mut self,
        stats: &[(String, membit_tensor::Tensor, membit_tensor::Tensor)],
    ) {
        for (name, mean, var) in stats {
            if let Some(idx) = name
                .strip_prefix("bn")
                .and_then(|s| s.parse::<usize>().ok())
            {
                if idx < self.conv_bns.len() {
                    self.conv_bns[idx].set_running_stats(mean.clone(), var.clone());
                }
            } else if name == "fc_bn" {
                self.fc_bn.set_running_stats(mean.clone(), var.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoNoise;
    use membit_tensor::Tensor;

    #[test]
    fn config_invariants() {
        let paper = VggConfig::paper();
        assert_eq!(paper.crossbar_layers(), 7);
        assert_eq!(paper.feature_dim(), 256 * 4 * 4);
        let small = VggConfig::small();
        assert_eq!(small.crossbar_layers(), 7);
        assert_eq!(small.feature_dim(), 64 * 2 * 2);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut params = Params::new();
        let mut rng = Rng::from_seed(0);
        let mut c = VggConfig::tiny();
        c.channels.clear();
        assert!(Vgg::new(&c, &mut params, &mut rng).is_err());

        let mut c2 = VggConfig::tiny();
        c2.in_h = 9; // not divisible by pool factor 4
        assert!(Vgg::new(&c2, &mut Params::new(), &mut rng).is_err());

        let mut c3 = VggConfig::tiny();
        c3.pool_after = vec![5];
        assert!(Vgg::new(&c3, &mut Params::new(), &mut rng).is_err());

        let mut c4 = VggConfig::tiny();
        c4.act_levels = 1;
        assert!(Vgg::new(&c4, &mut Params::new(), &mut rng).is_err());
    }

    #[test]
    fn forward_shapes() {
        let mut params = Params::new();
        let mut rng = Rng::from_seed(0);
        let cfg = VggConfig::tiny();
        let mut vgg = Vgg::new(&cfg, &mut params, &mut rng).unwrap();
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[2, 3, 8, 8]));
        let mut binding = params.binding();
        let logits = vgg
            .forward(
                &mut tape,
                &params,
                &mut binding,
                x,
                Phase::Train,
                &mut NoNoise,
            )
            .unwrap();
        assert_eq!(tape.value(logits).shape(), &[2, 4]);
    }

    #[test]
    fn hook_sees_every_crossbar_layer_once() {
        struct Counter(Vec<usize>);
        impl MvmNoiseHook for Counter {
            fn apply(&mut self, _t: &mut Tape, layer: usize, v: VarId) -> Result<VarId> {
                self.0.push(layer);
                Ok(v)
            }
        }
        let mut params = Params::new();
        let mut rng = Rng::from_seed(0);
        let cfg = VggConfig::tiny();
        let mut vgg = Vgg::new(&cfg, &mut params, &mut rng).unwrap();
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[1, 3, 8, 8]));
        let mut binding = params.binding();
        let mut hook = Counter(Vec::new());
        vgg.forward(&mut tape, &params, &mut binding, x, Phase::Eval, &mut hook)
            .unwrap();
        assert_eq!(hook.0, vec![0, 1, 2]); // tiny: 3 crossbar layers
    }

    #[test]
    fn crossbar_fan_ins_match_architecture() {
        let mut params = Params::new();
        let mut rng = Rng::from_seed(0);
        let vgg = Vgg::new(&VggConfig::tiny(), &mut params, &mut rng).unwrap();
        // tiny: channels [8, 8, 16] ⇒ crossbar convs see 8·9 and 8·9
        // inputs; the hidden FC sees feature_dim
        assert_eq!(
            vgg.crossbar_fan_ins(),
            vec![72.0, 72.0, VggConfig::tiny().feature_dim() as f32]
        );
        assert_eq!(vgg.crossbar_fan_ins().len(), vgg.crossbar_layers());
    }

    #[test]
    fn running_stats_roundtrip() {
        let mut params = Params::new();
        let mut rng = Rng::from_seed(0);
        let cfg = VggConfig::tiny();
        let mut vgg = Vgg::new(&cfg, &mut params, &mut rng).unwrap();
        // push non-trivial stats through one training forward
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_fn(&[2, 3, 8, 8], |i| (i % 13) as f32 * 0.1));
        let mut binding = params.binding();
        vgg.forward(
            &mut tape,
            &params,
            &mut binding,
            x,
            Phase::Train,
            &mut NoNoise,
        )
        .unwrap();
        let stats = vgg.running_stats();
        assert_eq!(stats.len(), 4); // 3 conv BNs + fc_bn

        let mut vgg2 = Vgg::new(&cfg, &mut Params::new(), &mut rng).unwrap();
        vgg2.set_running_stats(&stats);
        for (a, b) in vgg2.running_stats().iter().zip(&stats) {
            assert_eq!(a.1, b.1);
            assert_eq!(a.2, b.2);
        }
    }

    #[test]
    fn activations_are_quantized_levels() {
        // After tanh + 9-level quantization, all crossbar-layer inputs
        // must be multiples of 0.25 in [-1, 1].
        struct Checker;
        impl MvmNoiseHook for Checker {
            fn apply(&mut self, _t: &mut Tape, _l: usize, v: VarId) -> Result<VarId> {
                Ok(v)
            }
        }
        let mut params = Params::new();
        let mut rng = Rng::from_seed(3);
        let cfg = VggConfig::tiny();
        let mut vgg = Vgg::new(&cfg, &mut params, &mut rng).unwrap();
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_fn(&[1, 3, 8, 8], |i| {
            ((i % 7) as f32 - 3.0) / 3.0
        }));
        let mut binding = params.binding();
        let logits = vgg
            .forward(
                &mut tape,
                &params,
                &mut binding,
                x,
                Phase::Eval,
                &mut Checker,
            )
            .unwrap();
        assert!(tape.value(logits).as_slice().iter().all(|v| v.is_finite()));
    }
}
