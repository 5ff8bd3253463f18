//! Gaussian moment propagation through the network's nonlinearities —
//! the per-layer closed forms the MemSE-style analytic variance pass
//! (`membit-core::memse`) composes.
//!
//! Every helper takes the *clean* (noise-free) activation trajectory
//! plus a per-element error variance and returns the moments after one
//! nonlinearity, under the standard Gaussian approximation: the
//! accumulated error on each element is treated as `N(0, σ²)`
//! independent across elements. The fused `tanh` → k-level activation
//! quantizer — the one genuinely non-smooth, non-Gaussian step — gets an
//! *exact* output mean and variance under that input distribution,
//! computed from Gaussian bin probabilities at the pre-images of the
//! rounding boundaries; max-pool uses the clean-argmax gather
//! approximation. All helpers are pure `f32` arithmetic: no RNG, bitwise
//! deterministic across runs and thread counts.

use membit_tensor::{Tensor, TensorError};

use crate::Result;

/// Abramowitz & Stegun 7.1.26 polynomial approximation of `erf` —
/// |error| ≤ 1.5e-7, well under every tolerance the variance pass uses,
/// and free of `libm` so results are identical on every host.
fn erf_approx(x: f32) -> f32 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_6
            + t * (-0.284_496_72 + t * (1.421_413_8 + t * (-1.453_152_1 + t * 1.061_405_4))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// The standard normal CDF `Φ(x)`, via `erf_approx`.
pub fn normal_cdf(x: f32) -> f32 {
    0.5 * (1.0 + erf_approx(x / std::f32::consts::SQRT_2))
}

/// Polynomial `exp` for the fused-quantizer hot loop: `2^i·e^{f·ln 2}`
/// with `i = round(x·log₂e)` and a degree-6 Taylor on `|f·ln 2| ≤ 0.35`
/// — relative error ≲ 2e-7, several times cheaper than the library
/// call and, like [`erf_approx`], pure arithmetic so results are
/// identical on every host. Callers pass `x ≤ 0` (Gaussian kernels);
/// the exponent is clamped at the normal-range floor so the splice
/// never produces a denormal or wraps.
fn fast_exp(x: f32) -> f32 {
    let t = (x * std::f32::consts::LOG2_E).max(-126.0);
    // `(t + ½).floor()` instead of `round`: floor lowers to a single
    // vector-friendly instruction while round-half-away needs a libcall
    let i = (t + 0.5).floor();
    let u = (t - i) * std::f32::consts::LN_2;
    let p = 1.0
        + u * (1.0
            + u * (0.5
                + u * (1.0 / 6.0
                    + u * (1.0 / 24.0 + u * (1.0 / 120.0 + u / 720.0)))));
    f32::from_bits(((i as i32 + 127) as u32) << 23) * p
}

/// Gaussian kernel `e^{−z²/2}` and CDF `Φ(z)` from ONE exponential:
/// the A&S 7.1.26 `erf` exponent `e^{−x²}` at `x = z/√2` *is* the
/// pdf's kernel, so the fused quantizer pays a single [`fast_exp`] per
/// rounding boundary instead of two library `exp`s.
fn gauss_kernel_cdf(z: f32) -> (f32, f32) {
    let x = z * std::f32::consts::FRAC_1_SQRT_2;
    let ax = x.abs();
    let e = fast_exp(-ax * ax);
    let t = 1.0 / (1.0 + 0.327_591_1 * ax);
    let poly = t
        * (0.254_829_6
            + t * (-0.284_496_72 + t * (1.421_413_8 + t * (-1.453_152_1 + t * 1.061_405_4))));
    let erf = 1.0 - poly * e;
    // branchless sign fold so the caller's lane loop stays vectorizable
    let cdf = 0.5 * (1.0 + 1.0f32.copysign(x) * erf);
    (e, cdf)
}

/// Evaluates [`gauss_kernel_cdf`] at the `N` boundary pre-images — the
/// compile-time trip count turns the whole transcendental pass into
/// straight-line vectorizable code, which is what makes the analytic
/// walk fast enough to beat Monte-Carlo scoring by two orders of
/// magnitude.
#[inline]
fn gauss_lanes<const N: usize>(pre: &[f32], m: f32, inv_s: f32) -> ([f32; N], [f32; N]) {
    let mut kern = [0.0f32; N];
    let mut cdfs = [0.0f32; N];
    for k in 0..N {
        let (e, c) = gauss_kernel_cdf((pre[k] - m) * inv_s);
        kern[k] = e;
        cdfs[k] = c;
    }
    (kern, cdfs)
}

/// Propagates moments through the fused `tanh` → k-level-quantizer
/// stage *exactly* under the Gaussian pre-activation approximation.
///
/// The deployed network always quantizes immediately after `tanh`, and
/// the Gaussian error model is most accurate *before* the `tanh` (the
/// crossbar injects its read noise at the BN output). Pushing the
/// variance through `tanh` by the delta method and then quantizing
/// would linearize the `tanh` around the trajectory, which misestimates
/// the tail probability of crossing a rounding boundary — and
/// near-boundary tail crossings are exactly what the quantizer output
/// variance is made of. This fused form avoids the linearization
/// entirely: with
/// `Z ~ N(m, s²)` pre-tanh, the probability of landing in quantizer bin
/// `k` is evaluated at the *pre-images* `atanh(b_k)` of the rounding
/// boundaries (all interior boundaries satisfy `|b_k| < 1`, so the
/// pre-image is finite), and the output mean `E[q(tanh Z)]` and
/// variance `Var[q(tanh Z)]` follow from exact bin sums over the output
/// grid.
///
/// This is the one closed form that is **nonlinear in the input
/// variance** (a small σ barely crosses a rounding boundary, a large σ
/// saturates at the grid span), which is why the analytic GBO scorer
/// re-walks the network per candidate encoding instead of superposing
/// per-layer variance gains. The returned mean shifts off the clean
/// trajectory when it sits near a boundary pre-image.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for `levels < 2` or shape
/// mismatches.
pub fn tanh_quantize_moments(
    mean: &Tensor,
    var: &Tensor,
    levels: usize,
) -> Result<(Tensor, Tensor)> {
    let (m, v, _) = tanh_quantize_moments_with_gain(mean, var, levels)?;
    Ok((m, v))
}

/// [`tanh_quantize_moments`] with the quantizer's output grid *remapped*:
/// bin `k` emits `bins[k]` instead of `2k/l − 1`.
///
/// This is how a downstream deterministic, monotone re-quantization of
/// the activation grid (e.g. the PLA pulse-count snap of the next
/// crossbar layer's encoder) composes with the quantizer in closed
/// form: the activation distribution lives entirely on the `levels` bin
/// values, so remapping the bins — not perturbing the propagated mean —
/// gives the exact post-snap mean and variance. Snapping a propagated
/// *mean* instead would charge the walk a phantom representation error
/// on every element whose expected value falls between grid points,
/// even when every realizable activation is exactly representable.
///
/// # Errors
///
/// As [`tanh_quantize_moments`], plus a bin-count mismatch.
pub fn tanh_quantize_moments_mapped(
    mean: &Tensor,
    var: &Tensor,
    levels: usize,
    bins: &[f32],
) -> Result<(Tensor, Tensor)> {
    if bins.len() != levels {
        return Err(TensorError::InvalidArgument(format!(
            "{} bin values for a {levels}-level quantizer",
            bins.len()
        )));
    }
    let (m, v, _) = fused_tanh_quantize(mean, var, levels, bins)?;
    Ok((m, v))
}

/// [`tanh_quantize_moments`] plus the stage's *equivalent linear gain*
/// `κ = Cov(q(tanh Z), Z) / Var(Z)` per element.
///
/// By Stein's lemma, `Cov(f(Z), Z) = Var(Z)·E[f′(Z)]` for Gaussian `Z`;
/// the fused stage is a step function with jumps of `2/l` at the
/// boundary pre-images `a_k = atanh(b_k)`, so
/// `κ = Σ_k (2/l)·φ((a_k − m)/s)/s` in closed form. The gain is what a
/// covariance-aware contraction downstream needs: under the Gaussian
/// closure, `Cov(q(tanh Z_i), q(tanh Z_j)) ≈ κ_i·κ_j·Cov(Z_i, Z_j)` for
/// `i ≠ j`, while the diagonal keeps the exact per-element variance.
/// Zero input variance yields zero gain (the a.e. derivative of a step).
///
/// # Errors
///
/// As [`tanh_quantize_moments`].
pub fn tanh_quantize_moments_with_gain(
    mean: &Tensor,
    var: &Tensor,
    levels: usize,
) -> Result<(Tensor, Tensor, Tensor)> {
    let l = (levels.max(2) - 1) as f32;
    let grid: Vec<f32> = (0..levels).map(|k| 2.0 * k as f32 / l - 1.0).collect();
    fused_tanh_quantize(mean, var, levels, &grid)
}

/// Shared core: exact Gaussian moments (and Stein gain) of
/// `Z ↦ bins[bin(quantize(tanh Z))]` — the fused stage with arbitrary
/// output values per bin. The gain jump at interior boundary `k` is
/// `bins[k+1] − bins[k]`.
fn fused_tanh_quantize(
    mean: &Tensor,
    var: &Tensor,
    levels: usize,
    bins: &[f32],
) -> Result<(Tensor, Tensor, Tensor)> {
    if levels < 2 {
        return Err(TensorError::InvalidArgument(format!(
            "quantizer needs ≥ 2 levels, got {levels}"
        )));
    }
    check_same_shape("tanh_quantize_moments", mean, var)?;
    let l = (levels - 1) as f32;
    // pre-images of the interior rounding boundaries b_k = (2k−1)/l − 1
    let pre_bounds: Vec<f32> = (1..levels)
        .map(|k| ((2.0 * k as f32 - 1.0) / l - 1.0).atanh())
        .collect();
    let inv_sqrt_2pi = 1.0 / (2.0 * std::f32::consts::PI).sqrt();
    let ms = mean.as_slice();
    let vs = var.as_slice();
    let mut q_mean = vec![0.0f32; ms.len()];
    let mut q_var = vec![0.0f32; ms.len()];
    let mut q_gain = vec![0.0f32; ms.len()];
    // Boundaries beyond ±ZMAX·s carry no f32-visible probability mass
    // (Φ(−8) ≈ 6e−16), so only the window of boundaries within ZMAX
    // standard deviations of the mean is evaluated; everything below is
    // an exact 0, everything above an exact 1. Saturated elements — the
    // common case after tanh in a binary network — reduce to a bin
    // lookup with no transcendental calls at all.
    const ZMAX: f32 = 8.0;
    /// Lane-buffer capacity: every practical quantizer (9 levels = 8
    /// boundaries) fits, so the batched path below is the one that runs.
    const MAXB: usize = 32;
    let nb = pre_bounds.len();
    let mut kern = [0.0f32; MAXB];
    let mut cdfs = [0.0f32; MAXB];
    for (i, (&m, &v)) in ms.iter().zip(vs).enumerate() {
        if v <= 0.0 {
            // deterministic passthrough: the bin the clean value rounds to
            let idx = ((m.tanh().clamp(-1.0, 1.0) + 1.0) / 2.0 * l).round() as usize;
            q_mean[i] = bins[idx.min(bins.len() - 1)];
            continue;
        }
        let s = v.sqrt();
        let mut e1 = 0.0f32;
        let mut e2 = 0.0f32;
        let mut gain = 0.0f32;
        if nb <= MAXB {
            // edge-saturation shortcut: the window misses every boundary
            // — the common case for saturated activations after tanh in
            // a binary network, no transcendentals at all
            if m - ZMAX * s > pre_bounds[nb - 1] {
                q_mean[i] = bins[nb];
                continue;
            }
            if m + ZMAX * s < pre_bounds[0] {
                q_mean[i] = bins[0];
                continue;
            }
            // batched branchless pass over EVERY boundary: far-out lanes
            // contribute exact-to-f32 0/1 limits on their own, and the
            // independent lanes let the compiler vectorize the
            // transcendental work that dominates the walk
            let inv_s = 1.0 / s;
            if nb == 8 {
                let (k8, c8) = gauss_lanes::<8>(&pre_bounds, m, inv_s);
                kern[..8].copy_from_slice(&k8);
                cdfs[..8].copy_from_slice(&c8);
            } else {
                for ((&a, kn), cd) in pre_bounds
                    .iter()
                    .zip(kern[..nb].iter_mut())
                    .zip(cdfs[..nb].iter_mut())
                {
                    let (e, c) = gauss_kernel_cdf((a - m) * inv_s);
                    *kn = e;
                    *cd = c;
                }
            }
            let mut lo = 0.0f32;
            for k in 0..nb {
                let hi = cdfs[k];
                let p = hi - lo;
                let g = bins[k];
                e1 += p * g;
                e2 += p * g * g;
                gain += (bins[k + 1] - bins[k]) * kern[k];
                lo = hi;
            }
            gain *= inv_sqrt_2pi * inv_s;
            let g = bins[nb];
            let p = 1.0 - lo;
            e1 += p * g;
            e2 += p * g * g;
        } else {
            // windowed scalar fallback for pathologically fine quantizers
            let k_lo = pre_bounds.partition_point(|&a| a <= m - ZMAX * s);
            let k_end = pre_bounds.partition_point(|&a| a < m + ZMAX * s);
            if k_lo == k_end {
                // no boundary in reach: all mass sits in bin k_lo
                q_mean[i] = bins[k_lo];
                continue;
            }
            let mut lo = 0.0f32; // Φ at the window's lower edge
            for (k, &a) in pre_bounds.iter().enumerate().take(k_end).skip(k_lo) {
                let z = (a - m) / s;
                let (kernel, hi) = gauss_kernel_cdf(z);
                gain += (bins[k + 1] - bins[k]) * inv_sqrt_2pi * kernel / s;
                let g = bins[k];
                let p = hi - lo;
                e1 += p * g;
                e2 += p * g * g;
                lo = hi;
            }
            // residual mass lands in bin k_end (boundaries above are Φ = 1)
            let g = bins[k_end];
            let p = 1.0 - lo;
            e1 += p * g;
            e2 += p * g * g;
        }
        q_mean[i] = e1;
        q_var[i] = (e2 - e1 * e1).max(0.0);
        q_gain[i] = gain;
    }
    Ok((
        Tensor::from_vec(q_mean, mean.shape())?,
        Tensor::from_vec(q_var, mean.shape())?,
        Tensor::from_vec(q_gain, mean.shape())?,
    ))
}

/// Propagates moments through 2×2 max-pooling (stride 2, NCHW): pools
/// the clean activations exactly as the deployment path does and gathers
/// each window's variance at the clean argmax (first occurrence wins
/// ties, matching the pooling loop's strict-greater update). The
/// standard MemSE approximation: for the noise scales of interest the
/// argmax under noise coincides with the clean argmax with high
/// probability, so the pooled error is the error of the selected
/// element.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for non-NCHW input, odd
/// spatial dims, or shape mismatches.
pub fn max_pool2_moments(clean: &Tensor, var: &Tensor) -> Result<(Tensor, Tensor)> {
    check_same_shape("max_pool2_moments", clean, var)?;
    if clean.rank() != 4 {
        return Err(TensorError::InvalidArgument(format!(
            "max_pool2_moments expects NCHW, got rank {}",
            clean.rank()
        )));
    }
    let [n, c, h, w] = [
        clean.shape()[0],
        clean.shape()[1],
        clean.shape()[2],
        clean.shape()[3],
    ];
    if h % 2 != 0 || w % 2 != 0 {
        return Err(TensorError::InvalidArgument(format!(
            "cannot 2×2-pool {h}×{w}"
        )));
    }
    let (oh, ow) = (h / 2, w / 2);
    let src = clean.as_slice();
    let vsrc = var.as_slice();
    let mut out = vec![0.0f32; n * c * oh * ow];
    let mut vout = vec![0.0f32; n * c * oh * ow];
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0usize;
                    for ky in 0..2 {
                        for kx in 0..2 {
                            let idx = base + (oy * 2 + ky) * w + ox * 2 + kx;
                            if src[idx] > best {
                                best = src[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let o = ((ni * c + ci) * oh + oy) * ow + ox;
                    out[o] = best;
                    vout[o] = vsrc[best_idx];
                }
            }
        }
    }
    Ok((
        Tensor::from_vec(out, &[n, c, oh, ow])?,
        Tensor::from_vec(vout, &[n, c, oh, ow])?,
    ))
}

fn check_same_shape(op: &'static str, a: &Tensor, b: &Tensor) -> Result<()> {
    if a.shape() != b.shape() {
        return Err(TensorError::ShapeMismatch {
            op,
            lhs: a.shape().to_vec(),
            rhs: b.shape().to_vec(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use membit_tensor::Rng;

    /// The k-level activation quantizer the deployed network applies after
    /// `tanh`: uniform grid on `[−1, 1]` with `levels` points,
    /// `q(v) = round((clamp(v)+1)/2·l)/l·2 − 1` for `l = levels − 1`.
    /// Identical to `quantize_tensor` in the deployment path.
    fn quantize_value(v: f32, l: f32) -> f32 {
        ((v.clamp(-1.0, 1.0) + 1.0) / 2.0 * l).round() / l * 2.0 - 1.0
    }

    #[test]
    fn normal_cdf_matches_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-6);
        assert!((normal_cdf(1.0) - 0.841_344_7).abs() < 3e-6);
        assert!((normal_cdf(-1.96) - 0.024_997_9).abs() < 3e-6);
        assert!(normal_cdf(8.0) > 0.999_999);
        assert!(normal_cdf(-8.0) < 1e-6);
    }

    #[test]
    fn fused_tanh_quantize_matches_monte_carlo() {
        // the fused form must match MC of q(tanh(m + ε)) — including the
        // near-boundary regime where the delta-method composition
        // misestimates flip probabilities
        let levels = 9;
        let l = (levels - 1) as f32;
        let mut rng = Rng::from_seed(321);
        for &(m, s) in &[
            (0.12f32, 0.05f32), // near atanh-boundary, small noise
            (0.6, 0.2),
            (-1.2, 0.1), // saturating region
            (0.0, 0.4),
        ] {
            let mean = Tensor::from_vec(vec![m], &[1, 1]).unwrap();
            let var = Tensor::from_vec(vec![s * s], &[1, 1]).unwrap();
            let (qm, qv) = tanh_quantize_moments(&mean, &var, levels).unwrap();
            let trials = 80_000;
            let mut acc1 = 0.0f64;
            let mut acc2 = 0.0f64;
            for _ in 0..trials {
                let q = f64::from(quantize_value((m + rng.normal(0.0, s)).tanh(), l));
                acc1 += q;
                acc2 += q * q;
            }
            let mc_mean = acc1 / f64::from(trials);
            let mc_var = (acc2 / f64::from(trials) - mc_mean * mc_mean).max(0.0);
            let am = f64::from(qm.as_slice()[0]);
            let av = f64::from(qv.as_slice()[0]);
            let se = (mc_var / f64::from(trials)).sqrt().max(1e-5);
            assert!(
                (am - mc_mean).abs() < 6.0 * se + 1e-3,
                "m={m} s={s}: analytic mean {am} vs mc {mc_mean}"
            );
            assert!(
                (av - mc_var).abs() < 20.0 * se + 0.02 * mc_var + 1e-5,
                "m={m} s={s}: analytic var {av} vs mc {mc_var}"
            );
        }
        // zero variance: exact fused passthrough
        let mean = Tensor::from_vec(vec![0.4], &[1, 1]).unwrap();
        let (qm, qv) = tanh_quantize_moments(&mean, &Tensor::zeros(&[1, 1]), levels).unwrap();
        assert_eq!(qm.as_slice()[0], quantize_value(0.4f32.tanh(), l));
        assert_eq!(qv.as_slice()[0], 0.0);
        assert!(tanh_quantize_moments(&mean, &Tensor::zeros(&[1, 1]), 1).is_err());
    }

    #[test]
    fn stein_gain_matches_empirical_covariance() {
        // κ = Cov(q(tanh Z), Z)/Var(Z) — check the closed form against MC
        let levels = 9;
        let mut rng = Rng::from_seed(77);
        for &(m, s) in &[(0.1f32, 0.15f32), (-0.5, 0.3), (1.0, 0.1)] {
            let mean = Tensor::from_vec(vec![m], &[1, 1]).unwrap();
            let var = Tensor::from_vec(vec![s * s], &[1, 1]).unwrap();
            let (_, _, gain) = tanh_quantize_moments_with_gain(&mean, &var, levels).unwrap();
            let trials = 120_000;
            let l = (levels - 1) as f32;
            let draws: Vec<(f64, f64)> = (0..trials)
                .map(|_| {
                    let e = rng.normal(0.0, s);
                    (f64::from(quantize_value((m + e).tanh(), l)), f64::from(e))
                })
                .collect();
            let qbar = draws.iter().map(|(q, _)| q).sum::<f64>() / f64::from(trials);
            // centered estimator Cov = E[(q − q̄)·e] with its empirical SE
            let prods: Vec<f64> = draws.iter().map(|(q, e)| (q - qbar) * e).collect();
            let cov = prods.iter().sum::<f64>() / f64::from(trials);
            let pvar = prods.iter().map(|p| (p - cov) * (p - cov)).sum::<f64>()
                / f64::from(trials - 1);
            let se_gain = (pvar / f64::from(trials)).sqrt() / f64::from(s * s);
            let mc_gain = cov / f64::from(s * s);
            let a = f64::from(gain.as_slice()[0]);
            assert!(
                (a - mc_gain).abs() < 6.0 * se_gain + 0.03 * mc_gain.abs(),
                "m={m} s={s}: analytic gain {a} vs mc {mc_gain} ± {se_gain}"
            );
        }
        // zero variance ⇒ zero gain
        let mean = Tensor::from_vec(vec![0.2], &[1, 1]).unwrap();
        let (_, _, g) = tanh_quantize_moments_with_gain(&mean, &Tensor::zeros(&[1, 1]), 9).unwrap();
        assert_eq!(g.as_slice()[0], 0.0);
    }

    #[test]
    fn quantizer_moment_is_nonlinear_in_variance() {
        // doubling the input variance does NOT double the output moment —
        // the property that forces per-config walks in the GBO scorer
        let mean = Tensor::from_vec(vec![0.1], &[1, 1]).unwrap();
        let v1 = Tensor::from_vec(vec![0.001], &[1, 1]).unwrap();
        let v2 = Tensor::from_vec(vec![0.002], &[1, 1]).unwrap();
        let (_, e1) = tanh_quantize_moments(&mean, &v1, 8).unwrap();
        let (_, e2) = tanh_quantize_moments(&mean, &v2, 8).unwrap();
        let ratio = e2.as_slice()[0] / e1.as_slice()[0].max(1e-12);
        assert!((ratio - 2.0).abs() > 0.1, "ratio = {ratio}");
    }

    #[test]
    fn pool_moments_gather_variance_at_argmax() {
        let clean = Tensor::from_vec(
            vec![1.0, 4.0, 2.0, 3.0], // window max = 4 at flat index 1
            &[1, 1, 2, 2],
        )
        .unwrap();
        let var = Tensor::from_vec(vec![0.1, 0.7, 0.2, 0.3], &[1, 1, 2, 2]).unwrap();
        let (p, v) = max_pool2_moments(&clean, &var).unwrap();
        assert_eq!(p.as_slice(), &[4.0]);
        assert_eq!(v.as_slice(), &[0.7]);
        // ties: first occurrence wins, matching the deployment pool
        let tie = Tensor::from_vec(vec![2.0, 2.0, 1.0, 1.0], &[1, 1, 2, 2]).unwrap();
        let (_, v) = max_pool2_moments(&tie, &var).unwrap();
        assert_eq!(v.as_slice(), &[0.1]);
        assert!(max_pool2_moments(&clean, &Tensor::zeros(&[1, 1, 2, 2])).is_ok());
        assert!(max_pool2_moments(&clean, &Tensor::zeros(&[1, 1, 4, 4])).is_err());
    }
}
