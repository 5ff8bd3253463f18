//! A binary-weight residual network with crossbar hooks — the "different
//! network configuration" the paper's generality claim calls for.
//!
//! Architecture: a digital stem conv, then stages of residual blocks
//! (`conv-BN-tanh-quant → conv-BN`, plus a 1×1 projection on channel
//! changes, summed with the skip and re-activated), 2×2 max pools between
//! stages, global average pooling and a digital classifier. Every conv
//! except the stem is a crossbar layer with a pulse-encoded input, so the
//! same GBO machinery that searches the VGG9 searches this topology
//! unchanged.

use membit_autograd::{Tape, VarId};
use membit_tensor::{Rng, TensorError};

use crate::batchnorm::BatchNorm;
use crate::conv::Conv2d;
use crate::hooks::MvmNoiseHook;
use crate::linear::Linear;
use crate::params::{Binding, Params};
use crate::{Phase, Result};

/// Architecture description of a [`ResNet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResNetConfig {
    /// Input image channels.
    pub in_channels: usize,
    /// Input height (divisible by `2^(stages−1)`).
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Stem conv output channels (the digital first layer).
    pub stem_channels: usize,
    /// `(channels, blocks)` per stage; 2×2 max pools sit between stages.
    pub stages: Vec<(usize, usize)>,
    /// Activation quantization levels.
    pub act_levels: usize,
    /// Whether weights binarize (the BWNN setting).
    pub binary_weights: bool,
}

impl ResNetConfig {
    /// A compact BWNN ResNet for 3×16×16 inputs: stem 16, stages
    /// (16×1, 32×1), 10 classes.
    pub fn small() -> Self {
        Self {
            in_channels: 3,
            in_h: 16,
            in_w: 16,
            num_classes: 10,
            stem_channels: 16,
            stages: vec![(16, 1), (32, 1)],
            act_levels: 9,
            binary_weights: true,
        }
    }

    /// A miniature for unit tests (8×8 input).
    pub fn tiny() -> Self {
        Self {
            in_channels: 3,
            in_h: 8,
            in_w: 8,
            num_classes: 4,
            stem_channels: 8,
            stages: vec![(8, 1), (16, 1)],
            act_levels: 9,
            binary_weights: true,
        }
    }

    /// Number of crossbar (hooked) layers: per block two 3×3 convs plus a
    /// 1×1 projection when the block changes channel count.
    pub fn crossbar_layers(&self) -> usize {
        let mut count = 0;
        let mut in_ch = self.stem_channels;
        for &(ch, blocks) in &self.stages {
            for _ in 0..blocks {
                count += 2;
                if in_ch != ch {
                    count += 1;
                }
                in_ch = ch;
            }
        }
        count
    }

    fn validate(&self) -> Result<()> {
        if self.stages.is_empty() {
            return Err(TensorError::InvalidArgument(
                "ResNet needs at least one stage".into(),
            ));
        }
        if self.stages.iter().any(|&(c, b)| c == 0 || b == 0) {
            return Err(TensorError::InvalidArgument(
                "stage channels and block counts must be nonzero".into(),
            ));
        }
        let d = 1usize << (self.stages.len() - 1);
        if !self.in_h.is_multiple_of(d) || !self.in_w.is_multiple_of(d) {
            return Err(TensorError::InvalidArgument(format!(
                "input {}x{} not divisible by inter-stage pool factor {d}",
                self.in_h, self.in_w
            )));
        }
        if self.act_levels < 2 {
            return Err(TensorError::InvalidArgument(
                "act_levels must be ≥ 2".into(),
            ));
        }
        Ok(())
    }
}

struct Block {
    conv1: Conv2d,
    bn1: BatchNorm,
    conv2: Conv2d,
    bn2: BatchNorm,
    projection: Option<(Conv2d, BatchNorm)>,
}

/// The residual BWNN.
pub struct ResNet {
    config: ResNetConfig,
    stem: Conv2d,
    stem_bn: BatchNorm,
    blocks: Vec<Block>,
    classifier: Linear,
}

impl ResNet {
    /// Builds the model, registering parameters into `params`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for inconsistent configs.
    pub fn new(config: &ResNetConfig, params: &mut Params, rng: &mut Rng) -> Result<Self> {
        config.validate()?;
        let stem = Conv2d::new(
            "res_stem",
            config.in_channels,
            config.stem_channels,
            3,
            1,
            1,
            config.binary_weights,
            params,
            rng,
        );
        let stem_bn = BatchNorm::new("res_stem_bn", config.stem_channels, params);
        let mut blocks = Vec::new();
        let mut in_ch = config.stem_channels;
        for (si, &(ch, nblocks)) in config.stages.iter().enumerate() {
            for bi in 0..nblocks {
                let tag = format!("res_s{si}b{bi}");
                let conv1 = Conv2d::new(
                    &format!("{tag}_conv1"),
                    in_ch,
                    ch,
                    3,
                    1,
                    1,
                    config.binary_weights,
                    params,
                    rng,
                );
                let bn1 = BatchNorm::new(&format!("{tag}_bn1"), ch, params);
                let conv2 = Conv2d::new(
                    &format!("{tag}_conv2"),
                    ch,
                    ch,
                    3,
                    1,
                    1,
                    config.binary_weights,
                    params,
                    rng,
                );
                let bn2 = BatchNorm::new(&format!("{tag}_bn2"), ch, params);
                let projection = (in_ch != ch).then(|| {
                    (
                        Conv2d::new(
                            &format!("{tag}_proj"),
                            in_ch,
                            ch,
                            1,
                            1,
                            0,
                            config.binary_weights,
                            params,
                            rng,
                        ),
                        BatchNorm::new(&format!("{tag}_proj_bn"), ch, params),
                    )
                });
                blocks.push(Block {
                    conv1,
                    bn1,
                    conv2,
                    bn2,
                    projection,
                });
                in_ch = ch;
            }
        }
        let classifier = Linear::new(
            "res_classifier",
            in_ch,
            config.num_classes,
            true,
            false,
            params,
            rng,
        );
        Ok(Self {
            config: config.clone(),
            stem,
            stem_bn,
            blocks,
            classifier,
        })
    }

    /// The architecture description.
    pub fn config(&self) -> &ResNetConfig {
        &self.config
    }

    /// Number of crossbar (hooked) layers.
    pub fn crossbar_layers(&self) -> usize {
        self.config.crossbar_layers()
    }

    /// Running statistics of every batch-norm layer, keyed by layer name —
    /// part of the checkpoint alongside [`Params`] (mirrors
    /// [`Vgg::running_stats`](crate::Vgg::running_stats)).
    pub fn running_stats(&self) -> Vec<(String, membit_tensor::Tensor, membit_tensor::Tensor)> {
        let stat = |name: String, bn: &BatchNorm| {
            (name, bn.running_mean().clone(), bn.running_var().clone())
        };
        let mut out = vec![stat("res_stem_bn".into(), &self.stem_bn)];
        for (i, block) in self.blocks.iter().enumerate() {
            out.push(stat(format!("res_b{i}_bn1"), &block.bn1));
            out.push(stat(format!("res_b{i}_bn2"), &block.bn2));
            if let Some((_, proj_bn)) = &block.projection {
                out.push(stat(format!("res_b{i}_proj_bn"), proj_bn));
            }
        }
        out
    }

    /// Restores running statistics saved by
    /// [`running_stats`](Self::running_stats). Unknown names are ignored.
    pub fn set_running_stats(
        &mut self,
        stats: &[(String, membit_tensor::Tensor, membit_tensor::Tensor)],
    ) {
        for (name, mean, var) in stats {
            if name == "res_stem_bn" {
                self.stem_bn.set_running_stats(mean.clone(), var.clone());
                continue;
            }
            let Some(rest) = name.strip_prefix("res_b") else {
                continue;
            };
            let Some((idx_str, which)) = rest.split_once('_') else {
                continue;
            };
            let Some(block) = idx_str
                .parse::<usize>()
                .ok()
                .and_then(|i| self.blocks.get_mut(i))
            else {
                continue;
            };
            match which {
                "bn1" => block.bn1.set_running_stats(mean.clone(), var.clone()),
                "bn2" => block.bn2.set_running_stats(mean.clone(), var.clone()),
                "proj_bn" => {
                    if let Some((_, proj_bn)) = &mut block.projection {
                        proj_bn.set_running_stats(mean.clone(), var.clone());
                    }
                }
                _ => {}
            }
        }
    }

    /// Runs the network on `x` (`[N, C, H, W]`), returning logits.
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
        let levels = self.config.act_levels;
        let mut h = self.stem.forward(tape, params, binding, x)?;
        h = self.stem_bn.forward(tape, params, binding, h, phase)?;
        h = tape.tanh(h);
        h = tape.quantize_ste(h, levels)?;

        let mut layer_idx = 0usize;
        let mut block_iter = 0usize;
        for (si, &(_, nblocks)) in self.config.stages.iter().enumerate() {
            for _ in 0..nblocks {
                let block = &mut self.blocks[block_iter];
                block_iter += 1;
                let skip_input = h;

                let mut m = hook.encode(tape, layer_idx, h)?;
                m = block.conv1.forward(tape, params, binding, m)?;
                m = hook.apply(tape, layer_idx, m)?;
                layer_idx += 1;
                m = block.bn1.forward(tape, params, binding, m, phase)?;
                m = tape.tanh(m);
                m = tape.quantize_ste(m, levels)?;

                let mut m2 = hook.encode(tape, layer_idx, m)?;
                m2 = block.conv2.forward(tape, params, binding, m2)?;
                m2 = hook.apply(tape, layer_idx, m2)?;
                layer_idx += 1;
                m2 = block.bn2.forward(tape, params, binding, m2, phase)?;

                let skip = match &mut block.projection {
                    Some((proj, proj_bn)) => {
                        let mut s = hook.encode(tape, layer_idx, skip_input)?;
                        s = proj.forward(tape, params, binding, s)?;
                        s = hook.apply(tape, layer_idx, s)?;
                        layer_idx += 1;
                        proj_bn.forward(tape, params, binding, s, phase)?
                    }
                    None => skip_input,
                };
                let summed = tape.add(m2, skip)?;
                h = tape.tanh(summed);
                h = tape.quantize_ste(h, levels)?;
            }
            if si + 1 < self.config.stages.len() {
                h = tape.max_pool2d(h, 2)?;
            }
        }
        // global average pool → digital classifier
        let shape = tape.value(h).shape().to_vec();
        let pooled = tape.avg_pool2d(h, shape[2])?;
        let flat = tape.reshape(pooled, &[shape[0], shape[1]])?;
        self.classifier.forward(tape, params, binding, flat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NoNoise;
    use membit_tensor::Tensor;

    #[test]
    fn config_layer_count() {
        // tiny: stage0 (8ch, same as stem) = 2 layers; stage1 (16ch) =
        // 2 + 1 projection = 3 ⇒ 5 crossbar layers
        assert_eq!(ResNetConfig::tiny().crossbar_layers(), 5);
        assert_eq!(ResNetConfig::small().crossbar_layers(), 5);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut rng = Rng::from_seed(0);
        let mut c = ResNetConfig::tiny();
        c.stages.clear();
        assert!(ResNet::new(&c, &mut Params::new(), &mut rng).is_err());
        let mut c2 = ResNetConfig::tiny();
        c2.in_h = 9;
        assert!(ResNet::new(&c2, &mut Params::new(), &mut rng).is_err());
        let mut c3 = ResNetConfig::tiny();
        c3.stages[0].1 = 0;
        assert!(ResNet::new(&c3, &mut Params::new(), &mut rng).is_err());
    }

    #[test]
    fn forward_shapes_and_hook_coverage() {
        struct Recorder(Vec<usize>);
        impl MvmNoiseHook for Recorder {
            fn apply(&mut self, _t: &mut Tape, l: usize, v: VarId) -> Result<VarId> {
                self.0.push(l);
                Ok(v)
            }
        }
        let mut rng = Rng::from_seed(1);
        let mut params = Params::new();
        let mut net = ResNet::new(&ResNetConfig::tiny(), &mut params, &mut rng).unwrap();
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[2, 3, 8, 8]));
        let mut binding = params.binding();
        let mut rec = Recorder(Vec::new());
        let y = net
            .forward(&mut tape, &params, &mut binding, x, Phase::Train, &mut rec)
            .unwrap();
        assert_eq!(tape.value(y).shape(), &[2, 4]);
        assert_eq!(rec.0, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn gradients_flow_through_skip_connections() {
        let mut rng = Rng::from_seed(2);
        let mut params = Params::new();
        let mut net = ResNet::new(&ResNetConfig::tiny(), &mut params, &mut rng).unwrap();
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_fn(&[2, 3, 8, 8], |i| {
            ((i % 9) as f32 - 4.0) / 4.0
        }));
        let mut binding = params.binding();
        let logits = net
            .forward(
                &mut tape,
                &params,
                &mut binding,
                x,
                Phase::Train,
                &mut NoNoise,
            )
            .unwrap();
        let loss = tape.softmax_cross_entropy(logits, &[0, 3]).unwrap();
        tape.backward(loss).unwrap();
        let mut grads = 0;
        for (_, v) in binding.bound() {
            if tape.grad(v).is_some() {
                grads += 1;
            }
        }
        assert_eq!(grads, params.len(), "all parameters reached by gradient");
    }
}
