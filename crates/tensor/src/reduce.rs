//! Reductions: full-tensor and single-axis sums, means, extrema, and the
//! per-channel statistics batch normalization needs.

use crate::{Result, Tensor, TensorError};

impl Tensor {
    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Maximum element (−∞ for an empty tensor).
    pub fn max(&self) -> f32 {
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (+∞ for an empty tensor).
    pub fn min(&self) -> f32 {
        self.as_slice()
            .iter()
            .copied()
            .fold(f32::INFINITY, f32::min)
    }

    /// Population variance of all elements.
    pub fn variance(&self) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        let m = self.mean();
        self.as_slice()
            .iter()
            .map(|&x| (x - m) * (x - m))
            .sum::<f32>()
            / self.len() as f32
    }

    /// Standard deviation of all elements.
    pub fn std(&self) -> f32 {
        self.variance().sqrt()
    }

    /// Sums out one axis, returning a tensor of rank `rank - 1`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::AxisOutOfRange`] for an invalid axis.
    pub fn sum_axis(&self, axis: usize) -> Result<Tensor> {
        if axis >= self.rank() {
            return Err(TensorError::AxisOutOfRange {
                axis,
                rank: self.rank(),
            });
        }
        let outer: usize = self.shape()[..axis].iter().product();
        let mid = self.shape()[axis];
        let inner: usize = self.shape()[axis + 1..].iter().product();
        let mut out = vec![0.0f32; outer * inner];
        let src = self.as_slice();
        for o in 0..outer {
            for m in 0..mid {
                let base = (o * mid + m) * inner;
                let obase = o * inner;
                for i in 0..inner {
                    out[obase + i] += src[base + i];
                }
            }
        }
        let mut shape: Vec<usize> = self.shape().to_vec();
        shape.remove(axis);
        if shape.is_empty() {
            shape.push(1);
        }
        Tensor::from_vec(out, &shape)
    }

    /// Per-channel sum of a `[N, C, ...]` tensor: sums over every axis
    /// except axis 1, returning `[C]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for tensors of rank < 2.
    pub fn sum_channels(&self) -> Result<Tensor> {
        if self.rank() < 2 {
            return Err(TensorError::RankMismatch {
                op: "sum_channels",
                expected: 2,
                actual: self.rank(),
            });
        }
        let n = self.shape()[0];
        let c = self.shape()[1];
        let inner: usize = self.shape()[2..].iter().product();
        let mut out = vec![0.0f32; c];
        let src = self.as_slice();
        for ni in 0..n {
            for (ci, o) in out.iter_mut().enumerate() {
                let base = (ni * c + ci) * inner;
                *o += src[base..base + inner].iter().sum::<f32>();
            }
        }
        Tensor::from_vec(out, &[c])
    }

    /// Per-channel mean of a `[N, C, ...]` tensor, returning `[C]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for tensors of rank < 2.
    pub fn mean_channels(&self) -> Result<Tensor> {
        let c = if self.rank() >= 2 { self.shape()[1] } else { 0 };
        let denom = (self.len() / c.max(1)).max(1) as f32;
        Ok(self.sum_channels()?.mul_scalar(1.0 / denom))
    }

    /// Per-channel population variance of a `[N, C, ...]` tensor,
    /// returning `[C]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for tensors of rank < 2.
    pub fn var_channels(&self) -> Result<Tensor> {
        let mean = self.mean_channels()?;
        let n = self.shape()[0];
        let c = self.shape()[1];
        let inner: usize = self.shape()[2..].iter().product();
        let mut out = vec![0.0f32; c];
        let src = self.as_slice();
        for ni in 0..n {
            for (ci, o) in out.iter_mut().enumerate() {
                let base = (ni * c + ci) * inner;
                let m = mean.at(ci);
                *o += src[base..base + inner]
                    .iter()
                    .map(|&x| (x - m) * (x - m))
                    .sum::<f32>();
            }
        }
        let denom = (n * inner) as f32;
        Tensor::from_vec(out.into_iter().map(|v| v / denom).collect(), &[c])
    }

    /// Index of the maximum element in each row of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices.
    pub fn argmax_rows(&self) -> Result<Vec<usize>> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "argmax_rows",
                expected: 2,
                actual: self.rank(),
            });
        }
        let cols = self.shape()[1];
        Ok(self
            .as_slice()
            .chunks_exact(cols)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect())
    }

    /// Dot product with a same-shaped tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "dot",
                lhs: self.shape().to_vec(),
                rhs: other.shape().to_vec(),
            });
        }
        Ok(self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| a * b)
            .sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_reductions() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.max(), 4.0);
        assert_eq!(t.min(), 1.0);
        assert!((t.variance() - 1.25).abs() < 1e-6);
    }

    #[test]
    fn empty_tensor_reductions() {
        let t = Tensor::zeros(&[0]);
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.variance(), 0.0);
    }

    #[test]
    fn sum_axis_each_axis() {
        let t = Tensor::from_fn(&[2, 3], |i| i as f32); // [[0,1,2],[3,4,5]]
        assert_eq!(t.sum_axis(0).unwrap().as_slice(), &[3.0, 5.0, 7.0]);
        assert_eq!(t.sum_axis(1).unwrap().as_slice(), &[3.0, 12.0]);
        assert!(t.sum_axis(2).is_err());
    }

    #[test]
    fn sum_axis_reduces_to_scalar_shape() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let s = t.sum_axis(0).unwrap();
        assert_eq!(s.shape(), &[1]);
        assert_eq!(s.item(), 6.0);
    }

    #[test]
    fn channel_statistics() {
        // two channels: channel 0 constant 1, channel 1 values {0, 2}
        let t = Tensor::from_vec(vec![1.0, 1.0, 0.0, 2.0, 1.0, 1.0, 0.0, 2.0], &[2, 2, 2]).unwrap();
        assert_eq!(t.mean_channels().unwrap().as_slice(), &[1.0, 1.0]);
        assert_eq!(t.var_channels().unwrap().as_slice(), &[0.0, 1.0]);
        assert_eq!(t.sum_channels().unwrap().as_slice(), &[4.0, 4.0]);
    }

    #[test]
    fn argmax_rows_basic() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.5, 0.2, 0.3, 0.1], &[2, 3]).unwrap();
        assert_eq!(t.argmax_rows().unwrap(), vec![1, 1]);
        assert!(Tensor::zeros(&[3]).argmax_rows().is_err());
    }

    #[test]
    fn dot_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0], &[3]).unwrap();
        assert_eq!(a.dot(&b).unwrap(), 32.0);
        assert!(a.dot(&Tensor::zeros(&[2])).is_err());
    }
}
