//! Fully-connected layer with optional binary weights.

use membit_autograd::{Tape, VarId};
use membit_tensor::{Rng, Tensor};

use crate::params::{Binding, ParamId, Params};
use crate::Result;

/// A fully-connected layer `y = x·Wᵀ (+ b)`.
///
/// Weights are stored `[out, in]`. With `binary = true` the weights pass
/// through a straight-through `sign` each forward, as in the crossbar
/// mapping of the paper's BWNN.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: ParamId,
    bias: Option<ParamId>,
    in_features: usize,
    out_features: usize,
    binary: bool,
}

impl Linear {
    /// Creates the layer, registering `{name}.weight` (and `{name}.bias`
    /// when `bias` is set) with Kaiming-scaled init.
    pub fn new(
        name: &str,
        in_features: usize,
        out_features: usize,
        bias: bool,
        binary: bool,
        params: &mut Params,
        rng: &mut Rng,
    ) -> Self {
        let w = rng.kaiming_tensor(&[out_features, in_features], in_features);
        let weight = params.register(format!("{name}.weight"), w);
        let bias =
            bias.then(|| params.register(format!("{name}.bias"), Tensor::zeros(&[out_features])));
        Self {
            weight,
            bias,
            in_features,
            out_features,
            binary,
        }
    }

    /// Handle of the weight matrix.
    pub fn weight(&self) -> ParamId {
        self.weight
    }

    /// Handle of the bias vector, if any.
    pub fn bias(&self) -> Option<ParamId> {
        self.bias
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The effective (deployed) weight matrix: ±1 if binary.
    pub fn deployed_weight(&self, params: &Params) -> Tensor {
        let w = params.get(self.weight);
        if self.binary {
            w.map(|v| if v >= 0.0 { 1.0 } else { -1.0 })
        } else {
            w.clone()
        }
    }

    /// Runs the layer on `x` (`[N, in]`).
    ///
    /// # Errors
    ///
    /// Propagates shape errors (wrong feature count).
    pub fn forward(
        &self,
        tape: &mut Tape,
        params: &Params,
        binding: &mut Binding,
        x: VarId,
    ) -> Result<VarId> {
        let mut w = params.bind(tape, binding, self.weight);
        if self.binary {
            w = tape.sign_ste(w, 1.0);
        }
        let y = tape.matmul_transposed(x, w)?;
        match self.bias {
            Some(b) => {
                let bv = params.bind(tape, binding, b);
                tape.add(y, bv)
            }
            None => Ok(y),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes_and_bias() {
        let mut params = Params::new();
        let mut rng = Rng::from_seed(0);
        let lin = Linear::new("fc", 4, 3, true, false, &mut params, &mut rng);
        assert_eq!(lin.in_features(), 4);
        assert_eq!(lin.out_features(), 3);
        assert!(lin.bias().is_some());
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[5, 4]));
        let mut binding = params.binding();
        let y = lin.forward(&mut tape, &params, &mut binding, x).unwrap();
        assert_eq!(tape.value(y).shape(), &[5, 3]);
    }

    #[test]
    fn forward_matches_manual_matmul() {
        let mut params = Params::new();
        let mut rng = Rng::from_seed(0);
        let lin = Linear::new("fc", 2, 2, false, false, &mut params, &mut rng);
        // overwrite with known weights
        params.assign(
            "fc.weight",
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap(),
        );
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::from_vec(vec![1.0, 1.0], &[1, 2]).unwrap());
        let mut binding = params.binding();
        let y = lin.forward(&mut tape, &params, &mut binding, x).unwrap();
        // y = x·Wᵀ = [1+2, 3+4]
        assert_eq!(tape.value(y).as_slice(), &[3.0, 7.0]);
    }

    #[test]
    fn binary_deployed_weight() {
        let mut params = Params::new();
        let mut rng = Rng::from_seed(0);
        let lin = Linear::new("fc", 8, 8, false, true, &mut params, &mut rng);
        let dep = lin.deployed_weight(&params);
        assert!(dep.as_slice().iter().all(|&v| v.abs() == 1.0));
    }

    #[test]
    fn wrong_input_features_error() {
        let mut params = Params::new();
        let mut rng = Rng::from_seed(0);
        let lin = Linear::new("fc", 4, 3, false, false, &mut params, &mut rng);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::ones(&[5, 7]));
        let mut binding = params.binding();
        assert!(lin.forward(&mut tape, &params, &mut binding, x).is_err());
    }
}
