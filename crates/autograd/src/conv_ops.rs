//! Convolution and pooling on the tape.

use membit_tensor::{im2col_into, Conv2dGeometry, Tensor, TensorError};

use crate::op::Op;
use crate::tape::{Tape, VarId};
use crate::Result;

impl Tape {
    /// 2-D convolution of `x` (`[N, C, H, W]`) with kernel `w`
    /// (`[OC, C, KH, KW]`), lowered through `im2col`.
    ///
    /// # Errors
    ///
    /// Propagates geometry/shape mismatches between `x`, `w` and `geom`.
    pub fn conv2d(&mut self, x: VarId, w: VarId, geom: &Conv2dGeometry) -> Result<VarId> {
        let xv = self.value(x);
        if xv.rank() != 4 {
            return Err(TensorError::RankMismatch {
                op: "conv2d input",
                expected: 4,
                actual: xv.rank(),
            });
        }
        let wv = self.value(w);
        if wv.rank() != 4 {
            return Err(TensorError::RankMismatch {
                op: "conv2d weight",
                expected: 4,
                actual: wv.rank(),
            });
        }
        if wv.shape()[1] != geom.in_channels
            || wv.shape()[2] != geom.kernel_h
            || wv.shape()[3] != geom.kernel_w
        {
            return Err(TensorError::ShapeMismatch {
                op: "conv2d weight",
                lhs: wv.shape().to_vec(),
                rhs: vec![
                    wv.shape()[0],
                    geom.in_channels,
                    geom.kernel_h,
                    geom.kernel_w,
                ],
            });
        }
        let batch = xv.shape()[0];
        let oc = wv.shape()[0];
        let (oh, ow) = (geom.out_h(), geom.out_w());
        // lower through a pooled buffer: on a reset-reused tape this is
        // the previous minibatch's column matrix, so the largest
        // allocation of the forward pass is made once, not per batch
        let mut buf = self.take_col_buffer();
        im2col_into(self.value(x), geom, &mut buf)?;
        let rows = buf.len() / geom.patch_len();
        let cols = Tensor::from_vec(buf, &[rows, geom.patch_len()])?;
        let wmat = self.value(w).reshape(&[oc, geom.patch_len()])?;
        let out_rows = cols.matmul(&wmat.transpose()?)?;
        let value = out_rows
            .into_reshaped(&[batch, oh, ow, oc])?
            .nhwc_to_nchw()?;
        Ok(self.push_op(
            value,
            Op::Conv2d {
                x,
                w,
                geom: *geom,
                cols,
                batch,
            },
        ))
    }

    /// 2-D max pooling with a square `size`×`size` window and stride
    /// equal to `size` (the standard VGG pooling).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the spatial dims are not
    /// divisible by `size`, or a rank error for non-NCHW input.
    pub fn max_pool2d(&mut self, x: VarId, size: usize) -> Result<VarId> {
        let xv = self.value(x);
        if xv.rank() != 4 {
            return Err(TensorError::RankMismatch {
                op: "max_pool2d",
                expected: 4,
                actual: xv.rank(),
            });
        }
        if size == 0 {
            return Err(TensorError::InvalidArgument(
                "pool size must be nonzero".into(),
            ));
        }
        let [n, c, h, w] = [xv.shape()[0], xv.shape()[1], xv.shape()[2], xv.shape()[3]];
        if h % size != 0 || w % size != 0 {
            return Err(TensorError::InvalidArgument(format!(
                "spatial dims {h}x{w} not divisible by pool size {size}"
            )));
        }
        let (oh, ow) = (h / size, w / size);
        let src = xv.as_slice();
        let mut out = vec![0.0f32; n * c * oh * ow];
        let mut indices = vec![0usize; out.len()];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0usize;
                        for ky in 0..size {
                            for kx in 0..size {
                                let idx = base + (oy * size + ky) * w + (ox * size + kx);
                                if src[idx] > best {
                                    best = src[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let o = ((ni * c + ci) * oh + oy) * ow + ox;
                        out[o] = best;
                        indices[o] = best_idx;
                    }
                }
            }
        }
        let in_shape = xv.shape().to_vec();
        let value = Tensor::from_vec(out, &[n, c, oh, ow])?;
        Ok(self.push_op(
            value,
            Op::MaxPool2d {
                x,
                indices,
                in_shape,
            },
        ))
    }
}

impl Tape {
    /// 2-D average pooling with a square `size`×`size` window and stride
    /// equal to `size`.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`max_pool2d`](Self::max_pool2d).
    pub fn avg_pool2d(&mut self, x: VarId, size: usize) -> Result<VarId> {
        let xv = self.value(x);
        if xv.rank() != 4 {
            return Err(TensorError::RankMismatch {
                op: "avg_pool2d",
                expected: 4,
                actual: xv.rank(),
            });
        }
        if size == 0 {
            return Err(TensorError::InvalidArgument(
                "pool size must be nonzero".into(),
            ));
        }
        let [n, c, h, w] = [xv.shape()[0], xv.shape()[1], xv.shape()[2], xv.shape()[3]];
        if h % size != 0 || w % size != 0 {
            return Err(TensorError::InvalidArgument(format!(
                "spatial dims {h}x{w} not divisible by pool size {size}"
            )));
        }
        let (oh, ow) = (h / size, w / size);
        let area = (size * size) as f32;
        let src = xv.as_slice();
        let mut out = vec![0.0f32; n * c * oh * ow];
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * h * w;
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ky in 0..size {
                            for kx in 0..size {
                                acc += src[base + (oy * size + ky) * w + ox * size + kx];
                            }
                        }
                        out[((ni * c + ci) * oh + oy) * ow + ox] = acc / area;
                    }
                }
            }
        }
        let in_shape = xv.shape().to_vec();
        let value = Tensor::from_vec(out, &[n, c, oh, ow])?;
        Ok(self.push_op(value, Op::AvgPool2d { x, size, in_shape }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv2d_forward_matches_manual_1x1() {
        // 1x1 conv is a per-pixel linear map over channels.
        let mut tape = Tape::new();
        let xv = Tensor::from_fn(&[1, 2, 2, 2], |i| i as f32);
        let wv = Tensor::from_vec(vec![1.0, 10.0], &[1, 2, 1, 1]).unwrap();
        let x = tape.leaf(xv, false);
        let w = tape.leaf(wv, true);
        let g = Conv2dGeometry::new(2, 2, 2, 1, 1, 1, 0).unwrap();
        let y = tape.conv2d(x, w, &g).unwrap();
        // out[p] = ch0[p] + 10*ch1[p]; ch0 = 0..3, ch1 = 4..7
        assert_eq!(tape.value(y).as_slice(), &[40.0, 51.0, 62.0, 73.0]);
    }

    #[test]
    fn conv2d_weight_grad_accumulates_patches() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[1, 1, 3, 3]), false);
        let w = tape.leaf(Tensor::ones(&[1, 1, 3, 3]), true);
        let g = Conv2dGeometry::new(1, 3, 3, 3, 3, 1, 0).unwrap();
        let y = tape.conv2d(x, w, &g).unwrap();
        let l = tape.sum_all(y);
        tape.backward(l).unwrap();
        // single output position; dW = the input patch = all ones
        assert_eq!(tape.grad(w).unwrap().as_slice(), &[1.0; 9]);
    }

    #[test]
    fn conv2d_input_grad_via_padding() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::ones(&[1, 1, 2, 2]), true);
        let w = tape.leaf(Tensor::ones(&[1, 1, 3, 3]), false);
        let g = Conv2dGeometry::new(1, 2, 2, 3, 3, 1, 1).unwrap();
        let y = tape.conv2d(x, w, &g).unwrap();
        let l = tape.sum_all(y);
        tape.backward(l).unwrap();
        // each input pixel participates in the 4 overlapping windows
        assert_eq!(tape.grad(x).unwrap().as_slice(), &[4.0; 4]);
    }

    #[test]
    fn conv2d_rejects_bad_weight_shape() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(&[1, 2, 4, 4]), false);
        let w = tape.leaf(Tensor::zeros(&[3, 1, 3, 3]), false); // wrong in-ch
        let g = Conv2dGeometry::new(2, 4, 4, 3, 3, 1, 1).unwrap();
        assert!(tape.conv2d(x, w, &g).is_err());
    }

    #[test]
    fn max_pool_forward_and_routed_grad() {
        let mut tape = Tape::new();
        let xv =
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 8.0, 7.0, 6.0, 5.0], &[1, 2, 2, 2]).unwrap();
        let x = tape.leaf(xv, true);
        let y = tape.max_pool2d(x, 2).unwrap();
        assert_eq!(tape.value(y).as_slice(), &[4.0, 8.0]);
        let l = tape.sum_all(y);
        tape.backward(l).unwrap();
        assert_eq!(
            tape.grad(x).unwrap().as_slice(),
            &[0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0]
        );
    }

    #[test]
    fn avg_pool_forward_and_uniform_grad() {
        let mut tape = Tape::new();
        let xv =
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 8.0, 8.0, 8.0, 8.0], &[1, 2, 2, 2]).unwrap();
        let x = tape.leaf(xv, true);
        let y = tape.avg_pool2d(x, 2).unwrap();
        assert_eq!(tape.value(y).as_slice(), &[2.5, 8.0]);
        let l = tape.sum_all(y);
        tape.backward(l).unwrap();
        assert_eq!(tape.grad(x).unwrap().as_slice(), &[0.25; 8]);
        // validation mirrors max pool
        let bad = tape.leaf(Tensor::zeros(&[1, 1, 3, 3]), false);
        assert!(tape.avg_pool2d(bad, 2).is_err());
        assert!(tape.avg_pool2d(bad, 0).is_err());
    }

    #[test]
    fn reset_recycles_im2col_buffers_without_corrupting_results() {
        // run the same padded conv on a fresh tape and on a reset-reused
        // tape (whose pool hands back the previous batch's dirty column
        // buffer): values and grads must match exactly
        let g = Conv2dGeometry::new(2, 4, 4, 3, 3, 1, 1).unwrap();
        let xv = Tensor::from_fn(&[1, 2, 4, 4], |i| i as f32 / 7.0 - 2.0);
        let wv = Tensor::from_fn(&[2, 2, 3, 3], |i| ((i % 5) as f32 - 2.0) / 3.0);
        let run = |tape: &mut Tape| -> (Vec<f32>, Vec<f32>) {
            let x = tape.leaf(xv.clone(), false);
            let w = tape.leaf(wv.clone(), true);
            let y = tape.conv2d(x, w, &g).unwrap();
            let l = tape.sum_all(y);
            tape.backward(l).unwrap();
            (
                tape.value(y).as_slice().to_vec(),
                tape.grad(w).unwrap().as_slice().to_vec(),
            )
        };
        let mut fresh = Tape::new();
        let (y_fresh, g_fresh) = run(&mut fresh);
        let mut reused = Tape::new();
        for _ in 0..3 {
            reused.reset(); // second iteration onward pops a dirty buffer
            let (y_re, g_re) = run(&mut reused);
            assert_eq!(y_re, y_fresh);
            assert_eq!(g_re, g_fresh);
        }
    }

    #[test]
    fn max_pool_rejects_indivisible() {
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(&[1, 1, 3, 3]), false);
        assert!(tape.max_pool2d(x, 2).is_err());
        assert!(tape.max_pool2d(x, 0).is_err());
    }
}
