//! 2-D convolution layer with optional binary weights.

use membit_autograd::{Tape, VarId};
use membit_tensor::{Conv2dGeometry, Rng, Tensor};

use crate::params::{Binding, ParamId, Params};
use crate::Result;

/// A bias-free 2-D convolution (bias is subsumed by the following batch
/// norm, as in the paper's VGG9-BWNN).
///
/// With `binary = true` the stored full-precision ("latent") weights are
/// binarized to ±1 through a straight-through `sign` on every forward —
/// BinaryConnect-style training, matching the binary conductance states of
/// the crossbar.
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: ParamId,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    binary: bool,
}

impl Conv2d {
    /// Creates the layer, registering its kernel under `name` with
    /// Kaiming-scaled Gaussian init.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &str,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        binary: bool,
        params: &mut Params,
        rng: &mut Rng,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let w = rng.kaiming_tensor(&[out_channels, in_channels, kernel, kernel], fan_in);
        let weight = params.register(format!("{name}.weight"), w);
        Self {
            weight,
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            binary,
        }
    }

    /// Handle of the kernel parameter.
    pub fn weight(&self) -> ParamId {
        self.weight
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The effective (deployed) weight tensor: ±1 if binary, latent
    /// otherwise. This is what gets programmed into crossbar conductances.
    pub fn deployed_weight(&self, params: &Params) -> Tensor {
        let w = params.get(self.weight);
        if self.binary {
            w.map(|v| if v >= 0.0 { 1.0 } else { -1.0 })
        } else {
            w.clone()
        }
    }

    /// Runs the convolution on `x` (`[N, C, H, W]`).
    ///
    /// # Errors
    ///
    /// Propagates geometry/shape errors (wrong channel count, kernel larger
    /// than the padded input, ...).
    pub fn forward(
        &self,
        tape: &mut Tape,
        params: &Params,
        binding: &mut Binding,
        x: VarId,
    ) -> Result<VarId> {
        let shape = tape.value(x).shape().to_vec();
        let geom = Conv2dGeometry::new(
            self.in_channels,
            shape[2],
            shape[3],
            self.kernel,
            self.kernel,
            self.stride,
            self.padding,
        )?;
        let mut w = params.bind(tape, binding, self.weight);
        if self.binary {
            w = tape.sign_ste(w, 1.0);
        }
        tape.conv2d(x, w, &geom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(binary: bool) -> (Conv2d, Params, Rng) {
        let mut params = Params::new();
        let mut rng = Rng::from_seed(1);
        let conv = Conv2d::new("c", 3, 8, 3, 1, 1, binary, &mut params, &mut rng);
        (conv, params, rng)
    }

    #[test]
    fn forward_shape_preserving_padding() {
        let (conv, params, _) = setup(false);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[2, 3, 8, 8]));
        let mut binding = params.binding();
        let y = conv.forward(&mut tape, &params, &mut binding, x).unwrap();
        assert_eq!(tape.value(y).shape(), &[2, 8, 8, 8]);
    }

    #[test]
    fn binary_mode_binarizes_deployed_weights() {
        let (conv, params, _) = setup(true);
        let dep = conv.deployed_weight(&params);
        assert!(dep.as_slice().iter().all(|&v| v == 1.0 || v == -1.0));
        // latent weights stay full-precision
        assert!(params
            .get(conv.weight())
            .as_slice()
            .iter()
            .any(|&v| v != 1.0 && v != -1.0));
    }

    #[test]
    fn binary_forward_uses_sign() {
        let (conv, params, _) = setup(true);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[1, 3, 4, 4]));
        let mut binding = params.binding();
        let y = conv.forward(&mut tape, &params, &mut binding, x).unwrap();
        // interior outputs are sums of ±1 over 27 taps ⇒ odd integers
        let v = tape.value(y).get(&[0, 0, 1, 1]);
        assert!((v - v.round()).abs() < 1e-4);
        assert!((v.round() as i32) % 2 != 0);
    }

    #[test]
    fn gradient_reaches_latent_weights_through_sign() {
        let (conv, params, _) = setup(true);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[1, 3, 4, 4]));
        let mut binding = params.binding();
        let y = conv.forward(&mut tape, &params, &mut binding, x).unwrap();
        let l = tape.sum_all(y);
        tape.backward(l).unwrap();
        let wv = binding.var(conv.weight()).unwrap();
        let g = tape.grad(wv).unwrap();
        assert!(g.map(f32::abs).sum() > 0.0);
    }

    #[test]
    fn channel_mismatch_errors() {
        let (conv, params, _) = setup(false);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[1, 4, 8, 8])); // 4 ≠ 3 channels
        let mut binding = params.binding();
        assert!(conv.forward(&mut tape, &params, &mut binding, x).is_err());
    }
}
