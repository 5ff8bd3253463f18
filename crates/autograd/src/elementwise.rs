//! Elementwise and shape ops recorded on the tape.

use membit_tensor::Tensor;

use crate::op::Op;
use crate::tape::{Tape, VarId};
use crate::Result;

impl Tape {
    /// Broadcasting elementwise addition.
    ///
    /// # Errors
    ///
    /// Propagates [`membit_tensor::TensorError::ShapeMismatch`] for
    /// incompatible shapes.
    pub fn add(&mut self, a: VarId, b: VarId) -> Result<VarId> {
        let value = self.value(a).add(self.value(b))?;
        Ok(self.push_op(value, Op::Add { a, b }))
    }

    /// Broadcasting elementwise multiplication.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying tensor op.
    pub fn mul(&mut self, a: VarId, b: VarId) -> Result<VarId> {
        let value = self.value(a).mul(self.value(b))?;
        Ok(self.push_op(value, Op::Mul { a, b }))
    }

    /// Multiplies by a constant scalar.
    pub fn mul_scalar(&mut self, x: VarId, s: f32) -> VarId {
        let value = self.value(x).mul_scalar(s);
        self.push_op(value, Op::MulScalar { x, s })
    }

    /// Elementwise `tanh` — the bounded activation the paper's BWNN uses.
    pub fn tanh(&mut self, x: VarId) -> VarId {
        let value = self.value(x).tanh();
        self.push_op(value, Op::Tanh { x })
    }

    /// Shape reinterpretation (O(1) in the graph, grad reshapes back).
    ///
    /// # Errors
    ///
    /// Propagates [`membit_tensor::TensorError::LengthMismatch`] on volume
    /// mismatch.
    pub fn reshape(&mut self, x: VarId, shape: &[usize]) -> Result<VarId> {
        let value = self.value(x).reshape(shape)?;
        Ok(self.push_op(value, Op::Reshape { x }))
    }

    /// Sum of all elements (scalar output).
    pub fn sum_all(&mut self, x: VarId) -> VarId {
        let value = Tensor::scalar(self.value(x).sum());
        self.push_op(value, Op::SumAll { x })
    }

    /// Per-channel bias add: `[N, C, ...] + [C]`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors on a channel mismatch.
    pub fn add_channels(&mut self, x: VarId, bias: VarId) -> Result<VarId> {
        let value = self.value(x).add_channels(self.value(bias))?;
        Ok(self.push_op(value, Op::AddChannels { x, bias }))
    }

    /// Per-channel scale: `[N, C, ...] ∘ [C]`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors on a channel mismatch.
    pub fn mul_channels(&mut self, x: VarId, scale: VarId) -> Result<VarId> {
        let value = self.value(x).mul_channels(self.value(scale))?;
        Ok(self.push_op(value, Op::MulChannels { x, scale }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_broadcast_bias_grad_reduces() {
        // y = x + b with x: [2,3], b: [3]; L = sum(y) ⇒ db = [2,2,2]
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(&[2, 3]), true);
        let b = tape.leaf(Tensor::zeros(&[3]), true);
        let y = tape.add(x, b).unwrap();
        let l = tape.sum_all(y);
        tape.backward(l).unwrap();
        assert_eq!(tape.grad(b).unwrap().as_slice(), &[2.0, 2.0, 2.0]);
        assert_eq!(tape.grad(x).unwrap().as_slice(), &[1.0; 6]);
    }

    #[test]
    fn sub_grad_signs() {
        // a − b spelled with the kept ops, as losses spell it
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::scalar(5.0), true);
        let b = tape.leaf(Tensor::scalar(2.0), true);
        let nb = tape.mul_scalar(b, -1.0);
        let d = tape.add(a, nb).unwrap();
        tape.backward(d).unwrap();
        assert_eq!(tape.value(d).item(), 3.0);
        assert_eq!(tape.grad(a).unwrap().item(), 1.0);
        assert_eq!(tape.grad(b).unwrap().item(), -1.0);
    }

    #[test]
    fn tanh_grad_uses_output() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(0.5), true);
        let y = tape.tanh(x);
        tape.backward(y).unwrap();
        let expect = 1.0 - membit_tensor::tanh(0.5).powi(2);
        assert!((tape.grad(x).unwrap().item() - expect).abs() < 1e-6);
    }

    #[test]
    fn mean_all_scales_by_len() {
        // the mean spelled with the kept ops: sum, then 1/len
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(&[4]), true);
        let s = tape.sum_all(x);
        let l = tape.mul_scalar(s, 0.25);
        tape.backward(l).unwrap();
        assert_eq!(tape.grad(x).unwrap().as_slice(), &[0.25; 4]);
    }

    #[test]
    fn reshape_grad_restores_shape() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(&[2, 3]), true);
        let r = tape.reshape(x, &[6]).unwrap();
        let l = tape.sum_all(r);
        tape.backward(l).unwrap();
        assert_eq!(tape.grad(x).unwrap().shape(), &[2, 3]);
    }

    #[test]
    fn scalar_ops_grads() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(2.0), true);
        let y = tape.mul_scalar(x, 3.0);
        tape.backward(y).unwrap();
        assert_eq!(tape.value(y).item(), 6.0);
        assert_eq!(tape.grad(x).unwrap().item(), 3.0);
    }

    #[test]
    fn channel_ops_grads() {
        // x: [1, 2, 2], scale: [2]; L = sum(x ∘_c s)
        let mut tape = Tape::new();
        let xv = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2]).unwrap();
        let x = tape.leaf(xv, true);
        let s = tape.leaf(Tensor::from_vec(vec![2.0, 5.0], &[2]).unwrap(), true);
        let y = tape.mul_channels(x, s).unwrap();
        let l = tape.sum_all(y);
        tape.backward(l).unwrap();
        assert_eq!(tape.grad(x).unwrap().as_slice(), &[2.0, 2.0, 5.0, 5.0]);
        assert_eq!(tape.grad(s).unwrap().as_slice(), &[3.0, 7.0]);

        let mut tape2 = Tape::new();
        let x2 = tape2.leaf(Tensor::zeros(&[1, 2, 2]), true);
        let b2 = tape2.leaf(Tensor::zeros(&[2]), true);
        let y2 = tape2.add_channels(x2, b2).unwrap();
        let l2 = tape2.sum_all(y2);
        tape2.backward(l2).unwrap();
        assert_eq!(tape2.grad(b2).unwrap().as_slice(), &[2.0, 2.0]);
    }
}
