//! Elementwise arithmetic with NumPy-style broadcasting.
//!
//! Fast paths cover the patterns the workspace actually hits in inner loops
//! (same shape, scalar operands, trailing-suffix broadcast such as a `[C]`
//! bias against `[N, C]`, and per-channel broadcast of `[C]` against
//! `[N, C, H, W]`); everything else falls back to a generic strided walk.

use crate::{Result, Tensor, TensorError};

/// Computes the NumPy broadcast of two shapes.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes are not
/// broadcast-compatible.
pub(crate) fn broadcast_shape(op: &'static str, a: &[usize], b: &[usize]) -> Result<Vec<usize>> {
    let rank = a.len().max(b.len());
    let mut out = vec![0usize; rank];
    for i in 0..rank {
        let da = if i < rank - a.len() {
            1
        } else {
            a[i - (rank - a.len())]
        };
        let db = if i < rank - b.len() {
            1
        } else {
            b[i - (rank - b.len())]
        };
        out[i] = if da == db || db == 1 {
            da
        } else if da == 1 {
            db
        } else {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: a.to_vec(),
                rhs: b.to_vec(),
            });
        };
    }
    Ok(out)
}

/// Row-major strides for `shape`, with stride 0 on broadcast (size-1) axes
/// relative to `out_shape`.
fn broadcast_strides(shape: &[usize], out_shape: &[usize]) -> Vec<usize> {
    let rank = out_shape.len();
    let offset = rank - shape.len();
    let mut strides = vec![0usize; rank];
    let mut acc = 1usize;
    for i in (0..shape.len()).rev() {
        strides[offset + i] = if shape[i] == 1 { 0 } else { acc };
        acc *= shape[i];
    }
    strides
}

fn binary(op: &'static str, a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
    // Fast path: identical shapes.
    if a.shape() == b.shape() {
        return a.zip_map(b, f);
    }
    // Fast path: scalar rhs or lhs.
    if b.len() == 1 {
        let s = b.at(0);
        return Ok(a.map(|x| f(x, s)));
    }
    if a.len() == 1 {
        let s = a.at(0);
        return Ok(b.map(|x| f(s, x)));
    }
    // Fast path: rhs is a trailing suffix of lhs (e.g. [N, C] ∘ [C]).
    if a.rank() >= b.rank() && a.shape()[a.rank() - b.rank()..] == *b.shape() {
        let inner = b.len();
        let mut out = Vec::with_capacity(a.len());
        let bs = b.as_slice();
        for chunk in a.as_slice().chunks_exact(inner) {
            out.extend(chunk.iter().zip(bs).map(|(&x, &y)| f(x, y)));
        }
        return Tensor::from_vec(out, a.shape());
    }
    // Generic strided broadcast walk.
    let out_shape = broadcast_shape(op, a.shape(), b.shape())?;
    let sa = broadcast_strides(a.shape(), &out_shape);
    let sb = broadcast_strides(b.shape(), &out_shape);
    let volume: usize = out_shape.iter().product();
    let mut idx = vec![0usize; out_shape.len()];
    let mut oa = 0usize;
    let mut ob = 0usize;
    let mut out = Vec::with_capacity(volume);
    let (asl, bsl) = (a.as_slice(), b.as_slice());
    for _ in 0..volume {
        out.push(f(asl[oa], bsl[ob]));
        // increment multi-index
        for ax in (0..out_shape.len()).rev() {
            idx[ax] += 1;
            oa += sa[ax];
            ob += sb[ax];
            if idx[ax] < out_shape[ax] {
                break;
            }
            idx[ax] = 0;
            oa -= sa[ax] * out_shape[ax];
            ob -= sb[ax] * out_shape[ax];
        }
    }
    Tensor::from_vec(out, &out_shape)
}

impl Tensor {
    /// Broadcasting elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes are incompatible.
    pub fn add(&self, other: &Tensor) -> Result<Tensor> {
        binary("add", self, other, |a, b| a + b)
    }

    /// Broadcasting elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes are incompatible.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor> {
        binary("sub", self, other, |a, b| a - b)
    }

    /// Broadcasting elementwise multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes are incompatible.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor> {
        binary("mul", self, other, |a, b| a * b)
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        self.map(|x| -x)
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        self.map(|x| x * x)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        self.map(f32::sqrt)
    }

    /// Elementwise hyperbolic tangent through [`crate::tanh`], glibc's
    /// `tanhf` bit for bit on any host; the loop vectorizes.
    pub fn tanh(&self) -> Tensor {
        self.map(crate::tanh)
    }

    /// Clamps every element into `[lo, hi]`.
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|x| x.clamp(lo, hi))
    }

    /// Elementwise sign (`-1`, `0`, or `+1`).
    pub fn signum(&self) -> Tensor {
        self.map(|x| {
            if x > 0.0 {
                1.0
            } else if x < 0.0 {
                -1.0
            } else {
                0.0
            }
        })
    }

    /// Applies `f(x, scale[c])` over a `[N, C, ...]` tensor where `c` is the
    /// channel (axis 1) index. This is the NCHW per-channel pattern batch
    /// normalization uses; it is distinct from NumPy broadcasting, which
    /// would align a `[C]` operand with the *last* axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `per_channel` is not a
    /// `[C]` vector matching axis 1.
    pub fn channel_map(&self, per_channel: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
        if self.rank() < 2 || per_channel.shape() != [self.shape()[1]] {
            return Err(TensorError::ShapeMismatch {
                op: "channel_map",
                lhs: self.shape().to_vec(),
                rhs: per_channel.shape().to_vec(),
            });
        }
        let n = self.shape()[0];
        let c = self.shape()[1];
        let inner: usize = self.shape()[2..].iter().product();
        let mut out = Vec::with_capacity(self.len());
        let (asl, bsl) = (self.as_slice(), per_channel.as_slice());
        for ni in 0..n {
            for (ci, &y) in bsl.iter().enumerate().take(c) {
                let base = (ni * c + ci) * inner;
                out.extend(asl[base..base + inner].iter().map(|&x| f(x, y)));
            }
        }
        Tensor::from_vec(out, self.shape())
    }

    /// Per-channel (axis 1) addition of a `[C]` vector. See
    /// [`channel_map`](Self::channel_map).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on a channel-count mismatch.
    pub fn add_channels(&self, bias: &Tensor) -> Result<Tensor> {
        self.channel_map(bias, |x, y| x + y)
    }

    /// Per-channel (axis 1) multiplication by a `[C]` vector. See
    /// [`channel_map`](Self::channel_map).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] on a channel-count mismatch.
    pub fn mul_channels(&self, scale: &Tensor) -> Result<Tensor> {
        self.channel_map(scale, |x, y| x * y)
    }

    /// In-place `self += alpha * other` for same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ exactly.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "axpy",
                lhs: self.shape().to_vec(),
                rhs: other.shape().to_vec(),
            });
        }
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += alpha * b;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn same_shape_add() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[3.0, 4.0], &[2]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn scalar_broadcast_both_sides() {
        let a = t(&[1.0, 2.0], &[2]);
        let s = Tensor::scalar(10.0);
        assert_eq!(a.add(&s).unwrap().as_slice(), &[11.0, 12.0]);
        assert_eq!(s.sub(&a).unwrap().as_slice(), &[9.0, 8.0]);
    }

    #[test]
    fn suffix_broadcast_bias() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let bias = t(&[10.0, 20.0, 30.0], &[3]);
        let r = a.add(&bias).unwrap();
        assert_eq!(r.as_slice(), &[11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
        assert_eq!(r.shape(), &[2, 3]);
    }

    #[test]
    fn channel_ops_follow_axis1() {
        // [1, 2, 2, 2] scaled per channel by [2]
        let a = Tensor::ones(&[1, 2, 2, 2]);
        let g = t(&[2.0, 3.0], &[2]);
        let r = a.mul_channels(&g).unwrap();
        assert_eq!(r.as_slice(), &[2.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 3.0]);
        let b = a.add_channels(&g).unwrap();
        assert_eq!(b.as_slice(), &[3.0, 3.0, 3.0, 3.0, 4.0, 4.0, 4.0, 4.0]);
        assert!(a.mul_channels(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn numpy_trailing_broadcast_differs_from_channel_ops() {
        // NumPy semantics: a [2] operand aligns with the LAST axis of
        // [1, 2, 2, 2], not the channel axis.
        let a = Tensor::ones(&[1, 2, 2, 2]);
        let g = t(&[2.0, 3.0], &[2]);
        let r = a.mul(&g).unwrap();
        assert_eq!(r.as_slice(), &[2.0, 3.0, 2.0, 3.0, 2.0, 3.0, 2.0, 3.0]);
    }

    #[test]
    fn generic_broadcast_column_vs_row() {
        // [2,1] + [1,3] -> [2,3]
        let a = t(&[1.0, 2.0], &[2, 1]);
        let b = t(&[10.0, 20.0, 30.0], &[1, 3]);
        let r = a.add(&b).unwrap();
        assert_eq!(r.shape(), &[2, 3]);
        assert_eq!(r.as_slice(), &[11.0, 21.0, 31.0, 12.0, 22.0, 32.0]);
    }

    #[test]
    fn incompatible_shapes_error() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 2]);
        assert!(matches!(
            a.add(&b),
            Err(TensorError::ShapeMismatch { op: "add", .. })
        ));
    }

    #[test]
    fn unary_ops() {
        let a = t(&[-2.0, 0.0, 3.0], &[3]);
        assert_eq!(a.neg().as_slice(), &[2.0, -0.0, -3.0]);
        assert_eq!(a.square().as_slice(), &[4.0, 0.0, 9.0]);
        assert_eq!(a.signum().as_slice(), &[-1.0, 0.0, 1.0]);
        assert_eq!(a.clamp(-1.0, 1.0).as_slice(), &[-1.0, 0.0, 1.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = t(&[1.0, 1.0], &[2]);
        let b = t(&[2.0, 4.0], &[2]);
        a.axpy(0.5, &b).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
        assert!(a.axpy(1.0, &Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn broadcast_shape_rules() {
        assert_eq!(
            broadcast_shape("t", &[2, 1, 3], &[4, 1]).unwrap(),
            vec![2, 4, 3]
        );
        assert!(broadcast_shape("t", &[2, 3], &[4]).is_err());
    }
}
