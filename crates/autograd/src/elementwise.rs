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

    /// Broadcasting elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying tensor op.
    pub fn sub(&mut self, a: VarId, b: VarId) -> Result<VarId> {
        let value = self.value(a).sub(self.value(b))?;
        Ok(self.push_op(value, Op::Sub { a, b }))
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

    /// Broadcasting elementwise division.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying tensor op.
    pub fn div(&mut self, a: VarId, b: VarId) -> Result<VarId> {
        let value = self.value(a).div(self.value(b))?;
        Ok(self.push_op(value, Op::Div { a, b }))
    }

    /// Adds a constant scalar.
    pub fn add_scalar(&mut self, x: VarId, s: f32) -> VarId {
        let value = self.value(x).add_scalar(s);
        self.push_op(value, Op::AddScalar { x })
    }

    /// Multiplies by a constant scalar.
    pub fn mul_scalar(&mut self, x: VarId, s: f32) -> VarId {
        let value = self.value(x).mul_scalar(s);
        self.push_op(value, Op::MulScalar { x, s })
    }

    /// Elementwise negation.
    pub fn neg(&mut self, x: VarId) -> VarId {
        let value = self.value(x).neg();
        self.push_op(value, Op::Neg { x })
    }

    /// Elementwise `tanh` — the bounded activation the paper's BWNN uses.
    pub fn tanh(&mut self, x: VarId) -> VarId {
        let value = self.value(x).tanh();
        self.push_op(value, Op::Tanh { x })
    }

    /// Elementwise ReLU.
    pub fn relu(&mut self, x: VarId) -> VarId {
        let value = self.value(x).map(|v| v.max(0.0));
        self.push_op(value, Op::Relu { x })
    }

    /// Logistic sigmoid `1/(1+e^{−x})`.
    pub fn sigmoid(&mut self, x: VarId) -> VarId {
        let value = self.value(x).map(|v| 1.0 / (1.0 + (-v).exp()));
        self.push_op(value, Op::Sigmoid { x })
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, x: VarId) -> VarId {
        let value = self.value(x).exp();
        self.push_op(value, Op::Exp { x })
    }

    /// Elementwise natural logarithm (caller guarantees positivity).
    pub fn ln(&mut self, x: VarId) -> VarId {
        let value = self.value(x).ln();
        self.push_op(value, Op::Ln { x })
    }

    /// Elementwise absolute value (subgradient 0 at the kink).
    pub fn abs(&mut self, x: VarId) -> VarId {
        let value = self.value(x).abs();
        self.push_op(value, Op::Abs { x })
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

    /// Mean of all elements (scalar output).
    pub fn mean_all(&mut self, x: VarId) -> VarId {
        let value = Tensor::scalar(self.value(x).mean());
        self.push_op(value, Op::MeanAll { x })
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
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::scalar(5.0), true);
        let b = tape.leaf(Tensor::scalar(2.0), true);
        let d = tape.sub(a, b).unwrap();
        tape.backward(d).unwrap();
        assert_eq!(tape.grad(a).unwrap().item(), 1.0);
        assert_eq!(tape.grad(b).unwrap().item(), -1.0);
    }

    #[test]
    fn div_grads() {
        let mut tape = Tape::new();
        let a = tape.leaf(Tensor::scalar(6.0), true);
        let b = tape.leaf(Tensor::scalar(3.0), true);
        let q = tape.div(a, b).unwrap();
        tape.backward(q).unwrap();
        assert!((tape.grad(a).unwrap().item() - 1.0 / 3.0).abs() < 1e-6);
        assert!((tape.grad(b).unwrap().item() + 6.0 / 9.0).abs() < 1e-6);
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
    fn relu_gates_gradient() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::from_vec(vec![-1.0, 2.0], &[2]).unwrap(), true);
        let y = tape.relu(x);
        let l = tape.sum_all(y);
        tape.backward(l).unwrap();
        assert_eq!(tape.grad(x).unwrap().as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn new_unary_ops_forward_and_grad() {
        // sigmoid: y(1−y); exp: y; ln: 1/x; abs: sign — all against
        // closed forms at a single point.
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::scalar(0.5), true);
        let y = tape.sigmoid(x);
        tape.backward(y).unwrap();
        let s = 1.0 / (1.0 + (-0.5f32).exp());
        assert!((tape.value(y).item() - s).abs() < 1e-6);
        assert!((tape.grad(x).unwrap().item() - s * (1.0 - s)).abs() < 1e-6);

        let mut t2 = Tape::new();
        let x2 = t2.leaf(Tensor::scalar(1.2), true);
        let e = t2.exp(x2);
        t2.backward(e).unwrap();
        assert!((t2.grad(x2).unwrap().item() - 1.2f32.exp()).abs() < 1e-4);

        let mut t3 = Tape::new();
        let x3 = t3.leaf(Tensor::scalar(2.0), true);
        let l = t3.ln(x3);
        t3.backward(l).unwrap();
        assert!((t3.grad(x3).unwrap().item() - 0.5).abs() < 1e-6);

        let mut t4 = Tape::new();
        let x4 = t4.leaf(Tensor::from_vec(vec![-3.0, 4.0], &[2]).unwrap(), true);
        let a = t4.abs(x4);
        let sa = t4.sum_all(a);
        t4.backward(sa).unwrap();
        assert_eq!(t4.grad(x4).unwrap().as_slice(), &[-1.0, 1.0]);
    }

    #[test]
    fn new_ops_pass_gradcheck() {
        let x = Tensor::from_vec(vec![0.3, -0.8, 1.4, -0.1], &[4]).unwrap();
        let r = crate::check_gradients(&[x], 1e-3, |tape, vars| {
            let s = tape.sigmoid(vars[0]);
            let e = tape.exp(s);
            let l = tape.ln(e); // identity roundtrip keeps values positive
            Ok(tape.mean_all(l))
        })
        .unwrap();
        assert!(r.passes(2e-2), "{r:?}");
    }

    #[test]
    fn mean_all_scales_by_len() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(&[4]), true);
        let l = tape.mean_all(x);
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
        let z = tape.add_scalar(y, 10.0);
        tape.backward(z).unwrap();
        assert_eq!(tape.value(z).item(), 16.0);
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
