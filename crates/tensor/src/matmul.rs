//! Blocked, optionally multi-threaded matrix multiplication.
//!
//! The kernel uses the cache-friendly `i-k-j` loop order on row-major data
//! and parallelizes over row blocks with scoped threads, so no `unsafe` and
//! no global thread pool are required.

use crate::parallel::{plan_threads, scoped_chunks};
use crate::{Result, Tensor, TensorError};

/// Tuning knobs for [`matmul_into`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatmulOptions {
    /// Upper bound on worker threads (1 = single-threaded).
    pub max_threads: usize,
    /// Minimum number of left-hand rows per spawned thread; small products
    /// stay single-threaded to avoid spawn overhead.
    pub rows_per_thread: usize,
}

impl Default for MatmulOptions {
    fn default() -> Self {
        Self {
            max_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            rows_per_thread: 16,
        }
    }
}

impl MatmulOptions {
    /// Options forcing single-threaded execution.
    pub fn serial() -> Self {
        Self {
            max_threads: 1,
            rows_per_thread: usize::MAX,
        }
    }
}

/// Rows per register block — amortizes each `b` row load over four output
/// rows.
const TILE_I: usize = 4;
/// Columns per register block — 16 f32 accumulators per row fit the vector
/// register file alongside the `b` tile.
const TILE_J: usize = 16;

/// Computes `out = a · b` for row-major buffers.
///
/// `a` is `m×k`, `b` is `k×n`, `out` is `m×n`. `out` is fully overwritten.
///
/// The hot path processes `TILE_I×TILE_J` register blocks; every output
/// element accumulates its products in ascending-`k` order in *all* paths
/// (blocked, column remainder, row remainder), so results are bitwise
/// independent of how rows are grouped into blocks or split across
/// threads.
fn kernel(out: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
    if n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let mut oblocks = out.chunks_exact_mut(n * TILE_I);
    let mut ablocks = a.chunks_exact(k * TILE_I);
    for (ob, ab) in oblocks.by_ref().zip(ablocks.by_ref()) {
        row_block(ob, ab, b, k, n);
    }
    for (orow, arow) in oblocks
        .into_remainder()
        .chunks_exact_mut(n)
        .zip(ablocks.remainder().chunks_exact(k))
    {
        row_single(orow, arow, b, n);
    }
}

/// Multiplies a `TILE_I`-row slab of `a` against `b` into `out`.
fn row_block(out: &mut [f32], a: &[f32], b: &[f32], k: usize, n: usize) {
    let (a0, rest) = a.split_at(k);
    let (a1, rest) = rest.split_at(k);
    let (a2, a3) = rest.split_at(k);
    let mut j = 0;
    while j + TILE_J <= n {
        let mut acc = [[0.0f32; TILE_J]; TILE_I];
        for (((brow, &v0), (&v1, &v2)), &v3) in
            b.chunks_exact(n).zip(a0).zip(a1.iter().zip(a2)).zip(a3)
        {
            let bt: &[f32; TILE_J] = brow[j..j + TILE_J].try_into().expect("tile width");
            let avs = [v0, v1, v2, v3];
            for (accr, &av) in acc.iter_mut().zip(&avs) {
                for (o, &bv) in accr.iter_mut().zip(bt) {
                    *o += av * bv;
                }
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            out[r * n + j..r * n + j + TILE_J].copy_from_slice(accr);
        }
        j += TILE_J;
    }
    while j < n {
        let mut acc = [0.0f32; TILE_I];
        for (((brow, &v0), (&v1, &v2)), &v3) in
            b.chunks_exact(n).zip(a0).zip(a1.iter().zip(a2)).zip(a3)
        {
            let bv = brow[j];
            for (o, &av) in acc.iter_mut().zip(&[v0, v1, v2, v3]) {
                *o += av * bv;
            }
        }
        for (r, &v) in acc.iter().enumerate() {
            out[r * n + j] = v;
        }
        j += 1;
    }
}

/// Multiplies one row of `a` against `b` — the `m % TILE_I` remainder.
fn row_single(orow: &mut [f32], arow: &[f32], b: &[f32], n: usize) {
    orow.fill(0.0);
    for (&av, brow) in arow.iter().zip(b.chunks_exact(n)) {
        for (o, &bv) in orow.iter_mut().zip(brow) {
            *o += av * bv;
        }
    }
}

/// Multiplies `a` (`m×k`) by `b` (`k×n`) into a preallocated `out` (`m×n`).
///
/// Exposed separately from [`Tensor::matmul`] so hot loops (the autodiff
/// backward pass, the crossbar pulse pipeline) can reuse buffers.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] unless all tensors are rank 2, and
/// [`TensorError::ShapeMismatch`] if the inner or output dimensions
/// disagree.
pub fn matmul_into(out: &mut Tensor, a: &Tensor, b: &Tensor, opts: MatmulOptions) -> Result<()> {
    for (t, name) in [(a, "matmul lhs"), (b, "matmul rhs"), (&*out, "matmul out")] {
        if t.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: name,
                expected: 2,
                actual: t.rank(),
            });
        }
    }
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
        });
    }
    if out.shape() != [m, n] {
        return Err(TensorError::ShapeMismatch {
            op: "matmul out",
            lhs: out.shape().to_vec(),
            rhs: vec![m, n],
        });
    }

    let threads = plan_threads(m, opts.max_threads, opts.rows_per_thread);
    if threads == 1 || n == 0 {
        kernel(out.as_mut_slice(), a.as_slice(), b.as_slice(), k, n);
        return Ok(());
    }

    let rows_per = m.div_ceil(threads);
    let (asl, bsl) = (a.as_slice(), b.as_slice());
    let block = rows_per * n;
    scoped_chunks(out.as_mut_slice(), block, threads, |start, oblock| {
        let r0 = start / n;
        let rows = oblock.len() / n;
        kernel(oblock, &asl[r0 * k..(r0 + rows) * k], bsl, k, n);
    });
    Ok(())
}

impl Tensor {
    /// Matrix product of two rank-2 tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices and
    /// [`TensorError::ShapeMismatch`] when inner dimensions disagree.
    ///
    /// ```
    /// use membit_tensor::Tensor;
    /// # fn main() -> Result<(), membit_tensor::TensorError> {
    /// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
    /// let b = Tensor::from_vec(vec![0.0, 1.0, 1.0, 0.0], &[2, 2])?;
    /// assert_eq!(a.matmul(&b)?.as_slice(), &[2.0, 1.0, 4.0, 3.0]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        self.matmul_with(other, MatmulOptions::default())
    }

    /// Matrix product with explicit threading options.
    ///
    /// # Errors
    ///
    /// Same as [`matmul`](Self::matmul).
    pub fn matmul_with(&self, other: &Tensor, opts: MatmulOptions) -> Result<Tensor> {
        if self.rank() != 2 || other.rank() != 2 {
            return Err(TensorError::RankMismatch {
                op: "matmul",
                expected: 2,
                actual: if self.rank() != 2 {
                    self.rank()
                } else {
                    other.rank()
                },
            });
        }
        let mut out = Tensor::zeros(&[self.shape()[0], other.shape()[1]]);
        matmul_into(&mut out, self, other, opts)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        let mut out = Tensor::zeros(&[m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a.at(i * k + kk) * b.at(kk * n + j);
                }
                out.set(&[i, j], acc);
            }
        }
        out
    }

    #[test]
    fn matches_naive_small() {
        let a = Tensor::from_fn(&[3, 4], |i| (i as f32) * 0.5 - 2.0);
        let b = Tensor::from_fn(&[4, 5], |i| ((i * 7 % 11) as f32) - 5.0);
        let got = a.matmul(&b).unwrap();
        assert!(got.allclose(&naive(&a, &b), 1e-5));
    }

    #[test]
    fn parallel_matches_serial() {
        let a = Tensor::from_fn(&[97, 33], |i| ((i * 31 % 17) as f32) - 8.0);
        let b = Tensor::from_fn(&[33, 29], |i| ((i * 13 % 7) as f32) - 3.0);
        let serial = a.matmul_with(&b, MatmulOptions::serial()).unwrap();
        let parallel = a
            .matmul_with(
                &b,
                MatmulOptions {
                    max_threads: 4,
                    rows_per_thread: 8,
                },
            )
            .unwrap();
        assert!(serial.allclose(&parallel, 1e-4));
    }

    #[test]
    fn inner_dim_mismatch_errors() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn rank_errors() {
        let a = Tensor::zeros(&[6]);
        let b = Tensor::zeros(&[6, 1]);
        assert!(a.matmul(&b).is_err());
        assert!(b.matmul(&a).is_err());
    }

    #[test]
    fn matmul_into_validates_out_shape() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 4]);
        let mut bad = Tensor::zeros(&[2, 5]);
        assert!(matmul_into(&mut bad, &a, &b, MatmulOptions::serial()).is_err());
    }

    #[test]
    fn identity_and_zero() {
        let a = Tensor::from_fn(&[5, 5], |i| i as f32);
        assert!(a.matmul(&Tensor::eye(5)).unwrap().allclose(&a, 0.0));
        let z = Tensor::zeros(&[5, 5]);
        assert!(a.matmul(&z).unwrap().allclose(&z, 0.0));
    }
}
