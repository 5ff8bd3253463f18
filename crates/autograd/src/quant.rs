//! Straight-through-estimator quantizers and the GBO noise ops.

use membit_tensor::{Tensor, TensorError};

use crate::op::Op;
use crate::tape::{Tape, VarId};
use crate::Result;

/// Uniformly quantizes `v ∈ [-1, 1]` onto `levels` evenly spaced values.
///
/// Values outside `[-1, 1]` are clamped first. With `levels = 9` this is
/// the paper's 9-level activation quantization, which maps exactly onto an
/// 8-pulse thermometer code.
pub(crate) fn quantize_symmetric(v: f32, levels: usize) -> f32 {
    let l = (levels - 1) as f32;
    let clamped = v.clamp(-1.0, 1.0);
    ((clamped + 1.0) / 2.0 * l).round() / l * 2.0 - 1.0
}

impl Tape {
    /// Binarization `sign(x)` with a straight-through estimator: forward
    /// emits ±1 (zero maps to +1), backward passes gradient where
    /// `|x| ≤ clip` (BinaryConnect-style clipped STE).
    pub fn sign_ste(&mut self, x: VarId, clip: f32) -> VarId {
        let value = self.value(x).map(|v| if v >= 0.0 { 1.0 } else { -1.0 });
        self.push_op(value, Op::SignSte { x, clip })
    }

    /// Uniform `levels`-level quantization of `[-1, 1]` activations with a
    /// straight-through estimator (gradient passes where `|x| ≤ 1`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for fewer than 2 levels.
    pub fn quantize_ste(&mut self, x: VarId, levels: usize) -> Result<VarId> {
        if levels < 2 {
            return Err(TensorError::InvalidArgument(format!(
                "quantization needs ≥ 2 levels, got {levels}"
            )));
        }
        let value = self.value(x).map(|v| quantize_symmetric(v, levels));
        Ok(self.push_op(value, Op::QuantSte { x, clip: 1.0 }))
    }

    /// PLA re-quantization with a straight-through estimator: snaps
    /// `levels`-level activations in `[-1, 1]` onto the `pulses + 1`
    /// values a `pulses`-pulse thermometer code carries, rounding to the
    /// nearest level with exact ties broken toward the input's sign
    /// (paper §III-B: pulses are added/removed toward ±1 saturation).
    /// The sign-directed tie keeps the snap bias-free over symmetric
    /// activations. Gradient passes where `|x| ≤ 1`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for `levels < 2` or zero
    /// pulses.
    pub fn pla_quantize_ste(&mut self, x: VarId, levels: usize, pulses: usize) -> Result<VarId> {
        if levels < 2 || pulses == 0 {
            return Err(TensorError::InvalidArgument(format!(
                "pla quantization needs ≥ 2 levels and ≥ 1 pulse, got {levels}/{pulses}"
            )));
        }
        let q = pulses as f32;
        let l = (levels - 1) as f32;
        let value = self.value(x).map(|v| {
            let frac = ((v.clamp(-1.0, 1.0) + 1.0) / 2.0 * l).round() / l;
            let t = frac * q;
            let is_tie = (t - t.floor() - 0.5).abs() < 1e-4;
            let high = if is_tie {
                if v > 0.0 {
                    t.ceil()
                } else if v < 0.0 {
                    t.floor()
                } else {
                    let fl = t.floor();
                    if (fl as i64) % 2 == 0 {
                        fl
                    } else {
                        t.ceil()
                    }
                }
            } else {
                t.round()
            };
            high / q * 2.0 - 1.0
        });
        Ok(self.push_op(value, Op::QuantSte { x, clip: 1.0 }))
    }

    /// Softmax over a 1-D logit vector — produces the paper's mixture
    /// weights `α_k = e^{λ_k} / Σ_z e^{λ_z}`.
    ///
    /// # Errors
    ///
    /// Returns a rank error for non-vector input.
    pub fn softmax1d(&mut self, x: VarId) -> Result<VarId> {
        let xv = self.value(x);
        if xv.rank() != 1 {
            return Err(TensorError::RankMismatch {
                op: "softmax1d",
                expected: 1,
                actual: xv.rank(),
            });
        }
        let m = xv.max();
        let exps = xv.map(|v| (v - m).exp());
        let z = exps.sum();
        let value = exps.mul_scalar(1.0 / z);
        Ok(self.push_op(value, Op::Softmax1d { x }))
    }

    /// The GBO noise mixture (Eq. 5): `out = x + Σ_k α_k ε_k` where each
    /// `ε_k` is a *constant* noise sample shaped like `x` and `alpha` is a
    /// `[K]` vector (typically the output of [`softmax1d`]).
    ///
    /// Backward: `∂out/∂x = I` and `∂L/∂α_k = ⟨grad, ε_k⟩`, which is what
    /// lets the encoding logits learn which noise level the layer can
    /// tolerate.
    ///
    /// # Errors
    ///
    /// Returns shape errors if `alpha` is not `[len(eps)]` or any `ε_k`
    /// differs in shape from `x`.
    ///
    /// [`softmax1d`]: Self::softmax1d
    pub fn mix_noise(&mut self, x: VarId, alpha: VarId, eps: Vec<Tensor>) -> Result<VarId> {
        let av = self.value(alpha);
        if av.shape() != [eps.len()] {
            return Err(TensorError::ShapeMismatch {
                op: "mix_noise alpha",
                lhs: av.shape().to_vec(),
                rhs: vec![eps.len()],
            });
        }
        let xv = self.value(x);
        for e in &eps {
            if e.shape() != xv.shape() {
                return Err(TensorError::ShapeMismatch {
                    op: "mix_noise eps",
                    lhs: e.shape().to_vec(),
                    rhs: xv.shape().to_vec(),
                });
            }
        }
        let mut value = xv.clone();
        for (k, e) in eps.iter().enumerate() {
            value.axpy(av.at(k), e)?;
        }
        Ok(self.push_op(value, Op::MixNoise { x, alpha, eps }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_symmetric_levels() {
        // 9 levels over [-1, 1]: step 0.25
        assert_eq!(quantize_symmetric(0.0, 9), 0.0);
        assert_eq!(quantize_symmetric(0.13, 9), 0.25);
        assert_eq!(quantize_symmetric(-0.9, 9), -1.0);
        assert_eq!(quantize_symmetric(2.0, 9), 1.0);
        assert_eq!(quantize_symmetric(-2.0, 9), -1.0);
        // binary case
        assert_eq!(quantize_symmetric(0.4, 2), 1.0);
        assert_eq!(quantize_symmetric(-0.1, 2), -1.0);
    }

    #[test]
    fn sign_ste_forward_and_clipped_grad() {
        let mut tape = Tape::new();
        let xv = Tensor::from_vec(vec![-0.5, 0.0, 0.7, 2.0], &[4]).unwrap();
        let x = tape.leaf(xv, true);
        let y = tape.sign_ste(x, 1.0);
        assert_eq!(tape.value(y).as_slice(), &[-1.0, 1.0, 1.0, 1.0]);
        let l = tape.sum_all(y);
        tape.backward(l).unwrap();
        // gradient passes only where |x| ≤ 1
        assert_eq!(tape.grad(x).unwrap().as_slice(), &[1.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn quantize_ste_grad_passthrough() {
        let mut tape = Tape::new();
        let xv = Tensor::from_vec(vec![0.3, -1.5], &[2]).unwrap();
        let x = tape.leaf(xv, true);
        let y = tape.quantize_ste(x, 9).unwrap();
        assert_eq!(tape.value(y).as_slice(), &[0.25, -1.0]);
        let l = tape.sum_all(y);
        tape.backward(l).unwrap();
        assert_eq!(tape.grad(x).unwrap().as_slice(), &[1.0, 0.0]);
        assert!(tape.quantize_ste(x, 1).is_err());
    }

    #[test]
    fn pla_quantize_sign_directed_ties() {
        let mut tape = Tape::new();
        // q = 12 over 9-level values: ±0.25 land exactly between two
        // 13-level codes; ties must break toward the input's sign.
        let xv = Tensor::from_vec(vec![0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 0.0], &[7]).unwrap();
        let x = tape.leaf(xv, true);
        let y = tape.pla_quantize_ste(x, 9, 12).unwrap();
        let out = tape.value(y);
        assert!((out.at(0) - 1.0 / 3.0).abs() < 1e-6); // 0.25 → 8/12
        assert!((out.at(1) + 1.0 / 3.0).abs() < 1e-6); // −0.25 → 4/12
        assert_eq!(out.at(2), 0.5); // exact
        assert_eq!(out.at(3), -0.5);
        assert_eq!(out.at(4), 1.0);
        assert_eq!(out.at(5), -1.0);
        assert_eq!(out.at(6), 0.0);
        // bias-free: symmetric inputs produce symmetric outputs
        assert!((out.at(0) + out.at(1)).abs() < 1e-6);
        // STE backward
        let l = tape.sum_all(y);
        tape.backward(l).unwrap();
        assert_eq!(tape.grad(x).unwrap().as_slice(), &[1.0; 7]);
        // validation
        let mut t2 = Tape::new();
        let z = t2.leaf(Tensor::zeros(&[1]), false);
        assert!(t2.pla_quantize_ste(z, 1, 8).is_err());
        assert!(t2.pla_quantize_ste(z, 9, 0).is_err());
    }

    #[test]
    fn pla_quantize_exact_at_integer_multiples() {
        let mut tape = Tape::new();
        let xv = Tensor::from_vec((0..9).map(|k| k as f32 / 4.0 - 1.0).collect(), &[9]).unwrap();
        let x = tape.leaf(xv.clone(), false);
        let y = tape.pla_quantize_ste(x, 9, 16).unwrap();
        assert!(tape.value(y).allclose(&xv, 1e-6));
    }

    #[test]
    fn softmax_sums_to_one_and_grad_is_centered() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap(), true);
        let a = tape.softmax1d(x).unwrap();
        assert!((tape.value(a).sum() - 1.0).abs() < 1e-6);
        // L = a[2] (select with constant weights): grads sum to 0
        let w = Tensor::from_vec(vec![0.0, 0.0, 1.0], &[3]).unwrap();
        let l = tape.dot_const(a, &w).unwrap();
        tape.backward(l).unwrap();
        let g = tape.grad(x).unwrap();
        assert!(g.sum().abs() < 1e-6);
        assert!(g.at(2) > 0.0 && g.at(0) < 0.0);
    }

    #[test]
    fn softmax_requires_vector() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(&[2, 2]), true);
        assert!(tape.softmax1d(x).is_err());
    }

    #[test]
    fn mix_noise_forward_and_grads() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap(), true);
        let alpha = tape.leaf(Tensor::from_vec(vec![0.25, 0.75], &[2]).unwrap(), true);
        let eps = vec![
            Tensor::from_vec(vec![4.0, 0.0], &[2]).unwrap(),
            Tensor::from_vec(vec![0.0, 4.0], &[2]).unwrap(),
        ];
        let y = tape.mix_noise(x, alpha, eps).unwrap();
        assert_eq!(tape.value(y).as_slice(), &[2.0, 5.0]);
        let l = tape.sum_all(y);
        tape.backward(l).unwrap();
        assert_eq!(tape.grad(x).unwrap().as_slice(), &[1.0, 1.0]);
        // dα_k = ⟨1, ε_k⟩ = 4 each
        assert_eq!(tape.grad(alpha).unwrap().as_slice(), &[4.0, 4.0]);
    }

    #[test]
    fn mix_noise_validates_shapes() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(&[2]), true);
        let alpha = tape.leaf(Tensor::zeros(&[2]), true);
        // wrong eps count vs alpha
        assert!(tape.mix_noise(x, alpha, vec![Tensor::zeros(&[2])]).is_err());
        // wrong eps shape
        let alpha1 = tape.leaf(Tensor::zeros(&[1]), true);
        assert!(tape
            .mix_noise(x, alpha1, vec![Tensor::zeros(&[3])])
            .is_err());
    }
}
