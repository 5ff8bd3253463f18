//! The operator set recorded on the tape and each op's backward rule.

use membit_tensor::{col2im, Conv2dGeometry, Tensor};

use crate::tape::{Node, VarId};
use crate::Result;

/// One recorded operation: parent handles plus whatever forward state the
/// backward rule needs that is not already retained as a node value
/// (im2col patch matrices, pooling argmax indices, normalization
/// statistics, sampled noise).
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// Input / parameter node.
    Leaf,
    /// Broadcasting `a + b`.
    Add { a: VarId, b: VarId },
    /// Broadcasting `a ∘ b`.
    Mul { a: VarId, b: VarId },
    /// `s · x` for a constant `s`.
    MulScalar { x: VarId, s: f32 },
    /// `tanh(x)`.
    Tanh { x: VarId },
    /// 2-D average pooling with square window = stride.
    AvgPool2d {
        x: VarId,
        size: usize,
        in_shape: Vec<usize>,
    },
    /// Metadata-only shape change.
    Reshape { x: VarId },
    /// `a · b` for matrices.
    Matmul { a: VarId, b: VarId },
    /// `a · bᵀ` for matrices (the `x·Wᵀ` of a fully-connected layer,
    /// without materializing the transpose on the tape).
    MatmulT { a: VarId, b: VarId },
    /// `[N, C, ...] + [C]` on the channel axis.
    AddChannels { x: VarId, bias: VarId },
    /// `[N, C, ...] ∘ [C]` on the channel axis.
    MulChannels { x: VarId, scale: VarId },
    /// im2col-lowered 2-D convolution.
    Conv2d {
        x: VarId,
        w: VarId,
        geom: Conv2dGeometry,
        /// Patch matrix saved from the forward pass.
        cols: Tensor,
        batch: usize,
    },
    /// 2-D max pooling with saved argmax positions.
    MaxPool2d {
        x: VarId,
        /// Flat input index of the max for each output element.
        indices: Vec<usize>,
        in_shape: Vec<usize>,
    },
    /// Channel batch normalization `xhat·γ + β`.
    BatchNorm {
        x: VarId,
        gamma: VarId,
        beta: VarId,
        /// Normalized input, saved from forward.
        xhat: Tensor,
        /// Per-channel `1/√(var+ε)`.
        invstd: Tensor,
    },
    /// Binarization with a straight-through estimator.
    SignSte { x: VarId, clip: f32 },
    /// Uniform k-level quantization with a straight-through estimator.
    QuantSte { x: VarId, clip: f32 },
    /// Softmax over a 1-D vector (the GBO α computation).
    Softmax1d { x: VarId },
    /// GBO noise mixture: `x + Σ_k α_k ε_k` (Eq. 5); `ε_k` are constants.
    MixNoise {
        x: VarId,
        alpha: VarId,
        eps: Vec<Tensor>,
    },
    /// `Σ_i x_i w_i` against a constant weight vector (the latency
    /// regularizer of Eq. 6).
    DotConst { x: VarId, weights: Tensor },
    /// Sum of all elements.
    SumAll { x: VarId },
    /// Fused softmax + mean cross-entropy over class logits.
    SoftmaxCrossEntropy {
        logits: VarId,
        /// Row-softmax probabilities saved from forward.
        probs: Tensor,
        labels: Vec<usize>,
    },
}

/// Sums `grad` down to `shape` following NumPy broadcast rules (leading
/// axes inserted, size-1 axes stretched).
pub(crate) fn reduce_to_shape(grad: &Tensor, shape: &[usize]) -> Result<Tensor> {
    if grad.shape() == shape {
        return Ok(grad.clone());
    }
    let mut g = grad.clone();
    // collapse extra leading axes
    while g.rank() > shape.len() {
        g = g.sum_axis(0)?;
    }
    // For a scalar target, sum_axis may have already flattened to [1].
    if g.shape() == shape {
        return Ok(g);
    }
    // sum stretched axes back down to 1
    for ax in 0..shape.len() {
        if shape[ax] == 1 && g.shape()[ax] != 1 {
            let summed = g.sum_axis(ax)?;
            // reinsert the unit axis
            let mut s = summed.shape().to_vec();
            if s.len() < shape.len() {
                s.insert(ax, 1);
            }
            g = summed.into_reshaped(&s)?;
        }
    }
    g.into_reshaped(shape)
}

impl Op {
    /// Parent handles of this op (empty for leaves).
    pub(crate) fn parents(&self) -> Vec<VarId> {
        match self {
            Op::Leaf => vec![],
            Op::Add { a, b } | Op::Mul { a, b } => vec![*a, *b],
            Op::MulScalar { x, .. }
            | Op::Tanh { x }
            | Op::AvgPool2d { x, .. }
            | Op::Reshape { x }
            | Op::SignSte { x, .. }
            | Op::QuantSte { x, .. }
            | Op::Softmax1d { x }
            | Op::DotConst { x, .. }
            | Op::SumAll { x }
            | Op::MaxPool2d { x, .. } => vec![*x],
            Op::Matmul { a, b } | Op::MatmulT { a, b } => vec![*a, *b],
            Op::AddChannels { x, bias } => vec![*x, *bias],
            Op::MulChannels { x, scale } => vec![*x, *scale],
            Op::Conv2d { x, w, .. } => vec![*x, *w],
            Op::BatchNorm { x, gamma, beta, .. } => vec![*x, *gamma, *beta],
            Op::MixNoise { x, alpha, .. } => vec![*x, *alpha],
            Op::SoftmaxCrossEntropy { logits, .. } => vec![*logits],
        }
    }

    /// Computes the gradient contributions to each parent.
    ///
    /// `out` is this node's forward value, `grad` the incoming gradient
    /// (same shape as `out`), and `nodes` gives read access to parent
    /// values.
    pub(crate) fn backward(
        &self,
        out: &Tensor,
        grad: &Tensor,
        nodes: &[Node],
    ) -> Result<Vec<(VarId, Tensor)>> {
        let val = |id: VarId| &nodes[id.index()].value;
        match self {
            Op::Leaf => Ok(vec![]),
            Op::Add { a, b } => Ok(vec![
                (*a, reduce_to_shape(grad, val(*a).shape())?),
                (*b, reduce_to_shape(grad, val(*b).shape())?),
            ]),
            Op::Mul { a, b } => {
                let da = grad.mul(val(*b))?;
                let db = grad.mul(val(*a))?;
                Ok(vec![
                    (*a, reduce_to_shape(&da, val(*a).shape())?),
                    (*b, reduce_to_shape(&db, val(*b).shape())?),
                ])
            }
            Op::MulScalar { x, s } => Ok(vec![(*x, grad.mul_scalar(*s))]),
            Op::Tanh { x } => {
                let dx = grad.zip_map(out, |g, y| g * (1.0 - y * y))?;
                Ok(vec![(*x, dx)])
            }
            Op::AvgPool2d { x, size, in_shape } => {
                let s = *size;
                let area = (s * s) as f32;
                let [n, c, h, w] = [in_shape[0], in_shape[1], in_shape[2], in_shape[3]];
                let (oh, ow) = (h / s, w / s);
                let mut dx = Tensor::zeros(in_shape);
                let dxs = dx.as_mut_slice();
                let gs = grad.as_slice();
                for ni in 0..n {
                    for ci in 0..c {
                        for oy in 0..oh {
                            for ox in 0..ow {
                                let g = gs[((ni * c + ci) * oh + oy) * ow + ox] / area;
                                for ky in 0..s {
                                    for kx in 0..s {
                                        dxs[((ni * c + ci) * h + oy * s + ky) * w + ox * s + kx] +=
                                            g;
                                    }
                                }
                            }
                        }
                    }
                }
                Ok(vec![(*x, dx)])
            }
            Op::Reshape { x } => Ok(vec![(*x, grad.reshape(val(*x).shape())?)]),
            Op::Matmul { a, b } => {
                let da = grad.matmul(&val(*b).transpose()?)?;
                let db = val(*a).transpose()?.matmul(grad)?;
                Ok(vec![(*a, da), (*b, db)])
            }
            Op::MatmulT { a, b } => {
                // y = a·bᵀ ⇒ da = g·b, db = gᵀ·a
                let da = grad.matmul(val(*b))?;
                let db = grad.transpose()?.matmul(val(*a))?;
                Ok(vec![(*a, da), (*b, db)])
            }
            Op::AddChannels { x, bias } => {
                Ok(vec![(*x, grad.clone()), (*bias, grad.sum_channels()?)])
            }
            Op::MulChannels { x, scale } => {
                let dx = grad.mul_channels(val(*scale))?;
                let dscale = grad.mul(val(*x))?.sum_channels()?;
                Ok(vec![(*x, dx), (*scale, dscale)])
            }
            Op::Conv2d {
                x,
                w,
                geom,
                cols,
                batch,
            } => {
                let (oh, ow) = (geom.out_h(), geom.out_w());
                let oc = val(*w).shape()[0];
                let g_rows = grad.nchw_to_nhwc()?.into_reshaped(&[batch * oh * ow, oc])?;
                // dW = g_rowsᵀ · cols, reshaped to the kernel tensor
                let dw = g_rows
                    .transpose()?
                    .matmul(cols)?
                    .into_reshaped(val(*w).shape())?;
                // dx = col2im(g_rows · Wmat)
                let wmat = val(*w).reshape(&[oc, geom.patch_len()])?;
                let dcols = g_rows.matmul(&wmat)?;
                let dx = col2im(&dcols, *batch, geom)?;
                Ok(vec![(*x, dx), (*w, dw)])
            }
            Op::MaxPool2d {
                x,
                indices,
                in_shape,
            } => {
                let mut dx = Tensor::zeros(in_shape);
                let dxs = dx.as_mut_slice();
                for (gi, &src) in grad.as_slice().iter().zip(indices) {
                    dxs[src] += gi;
                }
                Ok(vec![(*x, dx)])
            }
            Op::BatchNorm {
                x,
                gamma,
                beta,
                xhat,
                invstd,
            } => {
                let c = xhat.shape()[1];
                let m = (xhat.len() / c) as f32;
                let dbeta = grad.sum_channels()?;
                let dgamma = grad.mul(xhat)?.sum_channels()?;
                let dxhat = grad.mul_channels(val(*gamma))?;
                let sum_dxhat = dxhat.sum_channels()?;
                let sum_dxhat_xhat = dxhat.mul(xhat)?.sum_channels()?;
                // dx = invstd/m · (m·dxhat − Σdxhat − xhat·Σ(dxhat·xhat))
                let term = dxhat
                    .mul_scalar(m)
                    .channel_map(&sum_dxhat, |v, s| v - s)?
                    .sub(&xhat.channel_map(&sum_dxhat_xhat, |v, s| v * s)?)?;
                let dx = term.channel_map(invstd, |v, s| v * s / m)?;
                Ok(vec![(*x, dx), (*gamma, dgamma), (*beta, dbeta)])
            }
            Op::SignSte { x, clip } | Op::QuantSte { x, clip } => {
                let c = *clip;
                let dx = grad.zip_map(val(*x), |g, xv| if xv.abs() <= c { g } else { 0.0 })?;
                Ok(vec![(*x, dx)])
            }
            Op::Softmax1d { x } => {
                // dx = y ∘ (g − ⟨g, y⟩)
                let inner = grad.dot(out)?;
                let dx = out.zip_map(grad, |y, g| y * (g - inner))?;
                Ok(vec![(*x, dx)])
            }
            Op::MixNoise { x, alpha, eps } => {
                let mut dalpha = Vec::with_capacity(eps.len());
                for e in eps {
                    dalpha.push(grad.dot(e)?);
                }
                Ok(vec![
                    (*x, grad.clone()),
                    (*alpha, Tensor::from_vec(dalpha, &[eps.len()])?),
                ])
            }
            Op::DotConst { x, weights } => {
                let g = grad.item();
                Ok(vec![(*x, weights.mul_scalar(g))])
            }
            Op::SumAll { x } => {
                let g = grad.item();
                Ok(vec![(*x, Tensor::full(val(*x).shape(), g))])
            }
            Op::SoftmaxCrossEntropy {
                logits,
                probs,
                labels,
            } => {
                let g = grad.item();
                let n = labels.len() as f32;
                let k = probs.shape()[1];
                let mut dl = probs.clone();
                {
                    let dls = dl.as_mut_slice();
                    for (i, &y) in labels.iter().enumerate() {
                        dls[i * k + y] -= 1.0;
                    }
                    for v in dls.iter_mut() {
                        *v *= g / n;
                    }
                }
                Ok(vec![(*logits, dl)])
            }
        }
    }
}
