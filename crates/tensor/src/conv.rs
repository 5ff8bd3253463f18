//! Convolution lowering: `im2col` / `col2im` and layout shuffles.
//!
//! `membit` lowers 2-D convolution to matrix multiplication: the input
//! `[N, C, H, W]` is unrolled into a patch matrix `[N·OH·OW, C·KH·KW]`
//! (`im2col`), multiplied against the transposed kernel, and the result is
//! reshaped from NHWC row order back to NCHW. `col2im` is the adjoint
//! scatter-add used by the backward pass.

use crate::{Result, Tensor, TensorError};

/// Static geometry of a 2-D convolution (NCHW, square behaviour per axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channel count.
    pub in_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub kernel_h: usize,
    /// Kernel width.
    pub kernel_w: usize,
    /// Stride along both axes.
    pub stride: usize,
    /// Zero padding along both axes.
    pub padding: usize,
}

impl Conv2dGeometry {
    /// Creates a geometry, validating kernel/stride against the padded input.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for a zero stride, an empty
    /// kernel, or a kernel larger than the padded input.
    pub fn new(
        in_channels: usize,
        in_h: usize,
        in_w: usize,
        kernel_h: usize,
        kernel_w: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self> {
        if stride == 0 {
            return Err(TensorError::InvalidArgument(
                "stride must be nonzero".into(),
            ));
        }
        if kernel_h == 0 || kernel_w == 0 {
            return Err(TensorError::InvalidArgument(
                "kernel must be nonempty".into(),
            ));
        }
        if kernel_h > in_h + 2 * padding || kernel_w > in_w + 2 * padding {
            return Err(TensorError::InvalidArgument(format!(
                "kernel {kernel_h}x{kernel_w} larger than padded input {}x{}",
                in_h + 2 * padding,
                in_w + 2 * padding
            )));
        }
        Ok(Self {
            in_channels,
            in_h,
            in_w,
            kernel_h,
            kernel_w,
            stride,
            padding,
        })
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.padding - self.kernel_h) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.padding - self.kernel_w) / self.stride + 1
    }

    /// Number of columns of the patch matrix (`C·KH·KW`).
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel_h * self.kernel_w
    }
}

/// Unrolls `input` (`[N, C, H, W]`) into the patch matrix
/// `[N·OH·OW, C·KH·KW]` described by `geom`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-rank-4 input and
/// [`TensorError::ShapeMismatch`] when the input disagrees with `geom`.
pub fn im2col(input: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor> {
    let mut out = Vec::new();
    im2col_into(input, geom, &mut out)?;
    let rows = out.len() / geom.patch_len();
    Tensor::from_vec(out, &[rows, geom.patch_len()])
}

/// [`im2col`] into a caller-provided buffer, reusing its allocation.
///
/// `out` is cleared and resized to `N·OH·OW · C·KH·KW` (zero-filled so
/// padding positions read 0), then populated; its spare capacity is kept,
/// so feeding the same buffer to repeated calls amortizes the allocation —
/// the autograd tape does exactly this across `conv2d` forwards.
///
/// # Errors
///
/// Same contract as [`im2col`].
pub fn im2col_into(input: &Tensor, geom: &Conv2dGeometry, out: &mut Vec<f32>) -> Result<()> {
    if input.rank() != 4 {
        return Err(TensorError::RankMismatch {
            op: "im2col",
            expected: 4,
            actual: input.rank(),
        });
    }
    let [n, c, h, w] = [
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    ];
    if c != geom.in_channels || h != geom.in_h || w != geom.in_w {
        return Err(TensorError::ShapeMismatch {
            op: "im2col",
            lhs: input.shape().to_vec(),
            rhs: vec![n, geom.in_channels, geom.in_h, geom.in_w],
        });
    }
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let patch = geom.patch_len();
    out.clear();
    out.resize(n * oh * ow * patch, 0.0);
    let src = input.as_slice();
    let pad = geom.padding as isize;
    for ni in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row_base = ((ni * oh + oy) * ow + ox) * patch;
                let iy0 = (oy * geom.stride) as isize - pad;
                let ix0 = (ox * geom.stride) as isize - pad;
                let mut col = 0usize;
                for ci in 0..c {
                    let chan_base = (ni * c + ci) * h * w;
                    for ky in 0..geom.kernel_h {
                        let iy = iy0 + ky as isize;
                        if iy < 0 || iy >= h as isize {
                            col += geom.kernel_w;
                            continue;
                        }
                        let row_off = chan_base + iy as usize * w;
                        for kx in 0..geom.kernel_w {
                            let ix = ix0 + kx as isize;
                            if ix >= 0 && ix < w as isize {
                                out[row_base + col] = src[row_off + ix as usize];
                            }
                            col += 1;
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

/// Adjoint of [`im2col`]: scatter-adds the patch-matrix gradient
/// (`[N·OH·OW, C·KH·KW]`) back into an input-shaped tensor
/// (`[N, C, H, W]`).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if `cols` does not match the
/// geometry for a batch of `n` images.
pub fn col2im(cols: &Tensor, n: usize, geom: &Conv2dGeometry) -> Result<Tensor> {
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let patch = geom.patch_len();
    if cols.shape() != [n * oh * ow, patch] {
        return Err(TensorError::ShapeMismatch {
            op: "col2im",
            lhs: cols.shape().to_vec(),
            rhs: vec![n * oh * ow, patch],
        });
    }
    let (c, h, w) = (geom.in_channels, geom.in_h, geom.in_w);
    let mut out = vec![0.0f32; n * c * h * w];
    let src = cols.as_slice();
    let pad = geom.padding as isize;
    for ni in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                let row_base = ((ni * oh + oy) * ow + ox) * patch;
                let iy0 = (oy * geom.stride) as isize - pad;
                let ix0 = (ox * geom.stride) as isize - pad;
                let mut col = 0usize;
                for ci in 0..c {
                    let chan_base = (ni * c + ci) * h * w;
                    for ky in 0..geom.kernel_h {
                        let iy = iy0 + ky as isize;
                        if iy < 0 || iy >= h as isize {
                            col += geom.kernel_w;
                            continue;
                        }
                        let row_off = chan_base + iy as usize * w;
                        for kx in 0..geom.kernel_w {
                            let ix = ix0 + kx as isize;
                            if ix >= 0 && ix < w as isize {
                                out[row_off + ix as usize] += src[row_base + col];
                            }
                            col += 1;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c, h, w])
}

impl Tensor {
    /// Reorders a `[N, H, W, C]`-interpreted buffer into `[N, C, H, W]`.
    ///
    /// The receiver's shape must be `[n, h, w, c]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-rank-4 tensors.
    pub fn nhwc_to_nchw(&self) -> Result<Tensor> {
        if self.rank() != 4 {
            return Err(TensorError::RankMismatch {
                op: "nhwc_to_nchw",
                expected: 4,
                actual: self.rank(),
            });
        }
        let [n, h, w, c] = [
            self.shape()[0],
            self.shape()[1],
            self.shape()[2],
            self.shape()[3],
        ];
        let src = self.as_slice();
        let mut out = vec![0.0f32; src.len()];
        for ni in 0..n {
            for yi in 0..h {
                for xi in 0..w {
                    let s = ((ni * h + yi) * w + xi) * c;
                    for ci in 0..c {
                        out[((ni * c + ci) * h + yi) * w + xi] = src[s + ci];
                    }
                }
            }
        }
        Tensor::from_vec(out, &[n, c, h, w])
    }

    /// Reorders a `[N, C, H, W]`-interpreted buffer into `[N, H, W, C]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-rank-4 tensors.
    pub fn nchw_to_nhwc(&self) -> Result<Tensor> {
        if self.rank() != 4 {
            return Err(TensorError::RankMismatch {
                op: "nchw_to_nhwc",
                expected: 4,
                actual: self.rank(),
            });
        }
        let [n, c, h, w] = [
            self.shape()[0],
            self.shape()[1],
            self.shape()[2],
            self.shape()[3],
        ];
        let src = self.as_slice();
        let mut out = vec![0.0f32; src.len()];
        for ni in 0..n {
            for ci in 0..c {
                for yi in 0..h {
                    for xi in 0..w {
                        out[((ni * h + yi) * w + xi) * c + ci] =
                            src[((ni * c + ci) * h + yi) * w + xi];
                    }
                }
            }
        }
        Tensor::from_vec(out, &[n, h, w, c])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_output_sizes() {
        let g = Conv2dGeometry::new(3, 8, 8, 3, 3, 1, 1).unwrap();
        assert_eq!((g.out_h(), g.out_w()), (8, 8));
        let g2 = Conv2dGeometry::new(3, 8, 8, 2, 2, 2, 0).unwrap();
        assert_eq!((g2.out_h(), g2.out_w()), (4, 4));
        assert_eq!(g.patch_len(), 27);
    }

    #[test]
    fn geometry_rejects_bad_params() {
        assert!(Conv2dGeometry::new(1, 4, 4, 3, 3, 0, 0).is_err());
        assert!(Conv2dGeometry::new(1, 4, 4, 0, 3, 1, 0).is_err());
        assert!(Conv2dGeometry::new(1, 2, 2, 5, 5, 1, 1).is_err());
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1: patch matrix is just a layout shuffle.
        let x = Tensor::from_fn(&[1, 2, 2, 2], |i| i as f32);
        let g = Conv2dGeometry::new(2, 2, 2, 1, 1, 1, 0).unwrap();
        let cols = im2col(&x, &g).unwrap();
        assert_eq!(cols.shape(), &[4, 2]);
        // row (y=0,x=0) gathers channel values x[0,:,0,0] = [0, 4]
        assert_eq!(cols.row(0), vec![0.0, 4.0]);
        assert_eq!(cols.row(3), vec![3.0, 7.0]);
    }

    #[test]
    fn im2col_padding_zero_fills() {
        let x = Tensor::ones(&[1, 1, 2, 2]);
        let g = Conv2dGeometry::new(1, 2, 2, 3, 3, 1, 1).unwrap();
        let cols = im2col(&x, &g).unwrap();
        assert_eq!(cols.shape(), &[4, 9]);
        // top-left patch: only bottom-right 2x2 of the kernel window overlaps.
        assert_eq!(
            cols.row(0),
            vec![0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]
        );
    }

    #[test]
    fn im2col_into_reuses_dirty_buffers() {
        let x = Tensor::from_fn(&[2, 2, 4, 4], |i| ((i * 3 % 17) as f32) - 8.0);
        let g = Conv2dGeometry::new(2, 4, 4, 3, 3, 1, 1).unwrap();
        let fresh = im2col(&x, &g).unwrap();
        // a buffer full of garbage (wrong size, nonzero) must yield the
        // same patch matrix — including the zero padding positions
        let mut buf = vec![f32::NAN; 7];
        im2col_into(&x, &g, &mut buf).unwrap();
        assert_eq!(buf, fresh.as_slice());
        let cap = buf.capacity();
        im2col_into(&x, &g, &mut buf).unwrap();
        assert_eq!(buf.capacity(), cap, "repeat call must not reallocate");
        assert_eq!(buf, fresh.as_slice());
        // errors propagate without touching validity guarantees
        assert!(im2col_into(&Tensor::zeros(&[4]), &g, &mut buf).is_err());
    }

    #[test]
    fn conv_via_matmul_matches_direct() {
        // direct convolution reference
        let n = 2;
        let (c, h, w) = (3, 5, 5);
        let (oc, kh, kw) = (4, 3, 3);
        let x = Tensor::from_fn(&[n, c, h, w], |i| ((i * 7 % 13) as f32) - 6.0);
        let wt = Tensor::from_fn(&[oc, c, kh, kw], |i| ((i * 5 % 11) as f32) - 5.0);
        let g = Conv2dGeometry::new(c, h, w, kh, kw, 1, 1).unwrap();
        let (oh, ow) = (g.out_h(), g.out_w());

        // lowered path
        let cols = im2col(&x, &g).unwrap();
        let wmat = wt.reshape(&[oc, c * kh * kw]).unwrap();
        let out_rows = cols.matmul(&wmat.transpose().unwrap()).unwrap();
        let lowered = out_rows
            .reshape(&[n, oh, ow, oc])
            .unwrap()
            .nhwc_to_nchw()
            .unwrap();

        // direct path
        let mut direct = Tensor::zeros(&[n, oc, oh, ow]);
        for ni in 0..n {
            for oci in 0..oc {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ci in 0..c {
                            for ky in 0..kh {
                                for kx in 0..kw {
                                    let iy = oy as isize + ky as isize - 1;
                                    let ix = ox as isize + kx as isize - 1;
                                    if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                        acc += x.get(&[ni, ci, iy as usize, ix as usize])
                                            * wt.get(&[oci, ci, ky, kx]);
                                    }
                                }
                            }
                        }
                        direct.set(&[ni, oci, oy, ox], acc);
                    }
                }
            }
        }
        assert!(lowered.allclose(&direct, 1e-3));
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of the adjoint, which is exactly what backprop needs.
        let g = Conv2dGeometry::new(2, 4, 4, 3, 3, 1, 1).unwrap();
        let x = Tensor::from_fn(&[2, 2, 4, 4], |i| ((i * 3 % 17) as f32) - 8.0);
        let cols = im2col(&x, &g).unwrap();
        let y = Tensor::from_fn(cols.shape(), |i| ((i * 11 % 23) as f32) - 11.0);
        let back = col2im(&y, 2, &g).unwrap();
        let lhs: f32 = cols
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(&a, &b)| a * b)
            .sum();
        let rhs: f32 = x
            .as_slice()
            .iter()
            .zip(back.as_slice())
            .map(|(&a, &b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0));
    }

    #[test]
    fn layout_shuffles_roundtrip() {
        let x = Tensor::from_fn(&[2, 3, 4, 5], |i| i as f32);
        let roundtrip = x.nchw_to_nhwc().unwrap().nhwc_to_nchw().unwrap();
        assert_eq!(roundtrip, x);
    }
}
