use std::fmt;

use crate::{Result, TensorError};

/// A dense, contiguous, row-major `f32` tensor.
///
/// All tensors in the `membit` workspace are contiguous; `reshape` is an
/// O(1) metadata change and `transpose` materializes a new buffer. This
/// keeps downstream consumers (the autodiff tape, the crossbar pulse
/// pipeline) free of stride bookkeeping.
///
/// ```
/// use membit_tensor::Tensor;
/// let t = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.shape(), &[2, 3]);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// Creates a tensor from a buffer and a shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` differs from
    /// the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self> {
        let volume: usize = shape.iter().product();
        if data.len() != volume {
            return Err(TensorError::LengthMismatch {
                expected: volume,
                actual: data.len(),
            });
        }
        Ok(Self {
            data,
            shape: shape.to_vec(),
        })
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Self {
            data: vec![value; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// Creates a tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Self::full(shape, 0.0)
    }

    /// Creates a tensor of ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a rank-0 (well, `[1]`-shaped) scalar tensor.
    pub fn scalar(value: f32) -> Self {
        Self {
            data: vec![value],
            shape: vec![1],
        }
    }

    /// Creates an `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor by evaluating `f` at each flat index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let volume: usize = shape.iter().product();
        Self {
            data: (0..volume).map(&mut f).collect(),
            shape: shape.to_vec(),
        }
    }

    /// Creates a 1-D tensor holding `start, start+step, ...` with `n` items.
    pub fn arange(start: f32, step: f32, n: usize) -> Self {
        Self::from_fn(&[n], |i| start + step * i as f32)
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The tensor's rank (number of axes).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the single element of a one-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.data.len(),
            1,
            "item() requires a one-element tensor, shape was {:?}",
            self.shape
        );
        self.data[0]
    }

    /// Flat-index accessor.
    pub fn at(&self, flat: usize) -> f32 {
        self.data[flat]
    }

    /// Converts a multi-index to a flat offset.
    ///
    /// # Panics
    ///
    /// Panics if `idx.len() != rank` or any coordinate is out of bounds.
    pub fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.shape.len(), "index rank mismatch");
        let mut off = 0;
        for (i, (&ix, &dim)) in idx.iter().zip(&self.shape).enumerate() {
            assert!(ix < dim, "index {ix} out of bounds for axis {i} (dim {dim})");
            off = off * dim + ix;
        }
        off
    }

    /// Multi-index read.
    pub fn get(&self, idx: &[usize]) -> f32 {
        self.data[self.offset(idx)]
    }

    /// Multi-index write.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let off = self.offset(idx);
        self.data[off] = value;
    }

    /// Reinterprets the tensor with a new shape of equal volume.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self> {
        let volume: usize = shape.iter().product();
        if volume != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: volume,
                actual: self.data.len(),
            });
        }
        Ok(Self {
            data: self.data.clone(),
            shape: shape.to_vec(),
        })
    }

    /// Like [`reshape`](Self::reshape) but consumes the tensor (no copy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ.
    pub fn into_reshaped(mut self, shape: &[usize]) -> Result<Self> {
        let volume: usize = shape.iter().product();
        if volume != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: volume,
                actual: self.data.len(),
            });
        }
        self.shape = shape.to_vec();
        Ok(self)
    }

    /// Materialized 2-D transpose.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless the tensor is rank 2.
    pub fn transpose(&self) -> Result<Self> {
        if self.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "transpose",
                expected: 2,
                actual: self.rank(),
            });
        }
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0; self.data.len()];
        for i in 0..r {
            for j in 0..c {
                out[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(Self {
            data: out,
            shape: vec![c, r],
        })
    }

    /// Returns a copy of row `i` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or `i` is out of bounds.
    pub fn row(&self, i: usize) -> Vec<f32> {
        assert_eq!(self.rank(), 2, "row() requires a matrix");
        let c = self.shape[1];
        self.data[i * c..(i + 1) * c].to_vec()
    }

    /// Concatenates tensors along axis 0. All shapes must agree on the
    /// remaining axes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for an empty input list
    /// and [`TensorError::ShapeMismatch`] for inconsistent tail shapes.
    pub fn concat0(parts: &[Tensor]) -> Result<Tensor> {
        let Some(first) = parts.first() else {
            return Err(TensorError::InvalidArgument(
                "concat0 needs at least one tensor".into(),
            ));
        };
        let tail = &first.shape()[1..];
        let mut rows = 0usize;
        for p in parts {
            if p.rank() != first.rank() || &p.shape()[1..] != tail {
                return Err(TensorError::ShapeMismatch {
                    op: "concat0",
                    lhs: first.shape().to_vec(),
                    rhs: p.shape().to_vec(),
                });
            }
            rows += p.shape()[0];
        }
        let mut data = Vec::with_capacity(rows * tail.iter().product::<usize>());
        for p in parts {
            data.extend_from_slice(p.as_slice());
        }
        let mut shape = first.shape().to_vec();
        shape[0] = rows;
        Tensor::from_vec(data, &shape)
    }

    /// Splits the tensor along axis 0 into chunks of at most `chunk`
    /// leading entries (the final chunk may be smaller).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for `chunk == 0` or a
    /// rank-0-like (empty-shape) tensor.
    pub fn split0(&self, chunk: usize) -> Result<Vec<Tensor>> {
        if chunk == 0 || self.shape.is_empty() {
            return Err(TensorError::InvalidArgument(
                "split0 needs chunk > 0 and rank ≥ 1".into(),
            ));
        }
        let n = self.shape[0];
        let per: usize = self.shape[1..].iter().product();
        let mut out = Vec::with_capacity(n.div_ceil(chunk.max(1)));
        let mut start = 0usize;
        while start < n {
            let end = (start + chunk).min(n);
            let mut shape = self.shape.clone();
            shape[0] = end - start;
            out.push(Tensor::from_vec(
                self.data[start * per..end * per].to_vec(),
                &shape,
            )?);
            start = end;
        }
        Ok(out)
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Self {
            data: self.data.iter().map(|&x| f(x)).collect(),
            shape: self.shape.clone(),
        }
    }

    /// Combines two same-shaped tensors elementwise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip_map(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Result<Self> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                op: "zip_map",
                lhs: self.shape.clone(),
                rhs: other.shape.clone(),
            });
        }
        Ok(Self {
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        })
    }

    /// `true` if every pairwise difference is within `tol` (and shapes match).
    pub fn allclose(&self, other: &Self, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol || (a.is_nan() && b.is_nan()))
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 8;
        write!(f, "Tensor{:?} [", self.shape)?;
        for (i, v) in self.data.iter().take(PREVIEW).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        if self.data.len() > PREVIEW {
            write!(f, ", … {} more", self.data.len() - PREVIEW)?;
        }
        write!(f, "]")
    }
}

impl From<Vec<f32>> for Tensor {
    /// Wraps a buffer as a 1-D tensor.
    fn from(data: Vec<f32>) -> Self {
        let n = data.len();
        Self {
            data,
            shape: vec![n],
        }
    }
}

impl FromIterator<f32> for Tensor {
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        Self::from(iter.into_iter().collect::<Vec<f32>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_volume() {
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
        assert!(matches!(
            Tensor::from_vec(vec![1.0; 5], &[2, 3]),
            Err(TensorError::LengthMismatch {
                expected: 6,
                actual: 5
            })
        ));
    }

    #[test]
    fn multi_index_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3, 4]);
        t.set(&[1, 2, 3], 7.0);
        assert_eq!(t.get(&[1, 2, 3]), 7.0);
        assert_eq!(t.offset(&[1, 2, 3]), 12 + 2 * 4 + 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_index_panics() {
        let t = Tensor::zeros(&[2, 2]);
        t.get(&[0, 2]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::arange(0.0, 1.0, 6);
        let r = t.reshape(&[2, 3]).unwrap();
        assert_eq!(r.shape(), &[2, 3]);
        assert_eq!(r.as_slice(), t.as_slice());
        assert!(t.reshape(&[4, 2]).is_err());
    }

    #[test]
    fn transpose_matrix() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let tt = t.transpose().unwrap();
        assert_eq!(tt.shape(), &[3, 2]);
        assert_eq!(tt.as_slice(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        // transposing twice is the identity
        assert_eq!(tt.transpose().unwrap(), t);
    }

    #[test]
    fn eye_is_identity_under_matmul() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let i = Tensor::eye(2);
        assert_eq!(t.matmul(&i).unwrap(), t);
    }

    #[test]
    fn map_and_zip_map() {
        let a = Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        assert_eq!(a.map(f32::abs).as_slice(), &[1.0, 2.0]);
        assert_eq!(a.zip_map(&b, |x, y| x * y).unwrap().as_slice(), &[3.0, -8.0]);
        assert!(a.zip_map(&Tensor::zeros(&[3]), |x, _| x).is_err());
    }

    #[test]
    fn allclose_tolerates_small_differences() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![1.0 + 1e-7, 2.0], &[2]).unwrap();
        assert!(a.allclose(&b, 1e-6));
        assert!(!a.allclose(&b, 1e-9));
        assert!(!a.allclose(&Tensor::zeros(&[3]), 1.0));
    }

    #[test]
    fn debug_preview_is_nonempty() {
        let t = Tensor::arange(0.0, 1.0, 20);
        let s = format!("{t:?}");
        assert!(s.contains("Tensor[20]"));
        assert!(s.contains("more"));
    }

    #[test]
    fn item_and_scalar() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    fn concat0_then_split0_roundtrip() {
        let a = Tensor::from_fn(&[2, 3], |i| i as f32);
        let b = Tensor::from_fn(&[1, 3], |i| 100.0 + i as f32);
        let c = Tensor::concat0(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(c.shape(), &[3, 3]);
        assert_eq!(c.row(2), vec![100.0, 101.0, 102.0]);
        let parts = c.split0(2).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1].shape(), &[1, 3]);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn concat0_validates() {
        assert!(Tensor::concat0(&[]).is_err());
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 4]);
        assert!(Tensor::concat0(&[a.clone(), b]).is_err());
        assert!(a.split0(0).is_err());
    }

    #[test]
    fn split0_chunk_larger_than_len() {
        let a = Tensor::from_fn(&[3], |i| i as f32);
        let parts = a.split0(10).unwrap();
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0], a);
    }

    #[test]
    fn collect_from_iterator() {
        let t: Tensor = (0..4).map(|i| i as f32).collect();
        assert_eq!(t.shape(), &[4]);
    }
}
