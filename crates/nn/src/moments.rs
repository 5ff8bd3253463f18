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

use membit_tensor::{tanh, Tensor, TensorError};

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
            + u * (0.5 + u * (1.0 / 6.0 + u * (1.0 / 24.0 + u * (1.0 / 120.0 + u / 720.0)))));
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

/// Boundaries per lane pass of the fused quantizer: 9 levels (8
/// boundaries) take exactly one pass.
const LANES: usize = 8;

/// Evaluates [`gauss_kernel_cdf`] at `N` boundary pre-images — the
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

/// The activation quantizer's output grid: bin `k` of `levels` emits
/// `2k/l − 1` (`l = levels − 1`), the value the deployed network's
/// level `k` stands for. These are the bins of
/// [`tanh_quantize_moments`] when nothing re-quantizes the activation.
pub fn quantizer_grid(levels: usize) -> Vec<f32> {
    let l = (levels.max(2) - 1) as f32;
    (0..levels).map(|k| 2.0 * k as f32 / l - 1.0).collect()
}

/// Propagates moments through the fused `tanh` → k-level-quantizer
/// stage *exactly* under the Gaussian pre-activation approximation,
/// with bin `k` of the `bins.len()`-level quantizer emitting `bins[k]`.
/// Returns the output mean, variance and equivalent linear gain per
/// element.
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
/// variance `Var[q(tanh Z)]` follow from exact bin sums over `bins`.
///
/// This is the one closed form that is **nonlinear in the input
/// variance** (a small σ barely crosses a rounding boundary, a large σ
/// saturates at the grid span), which is why the analytic GBO scorer
/// re-walks the network per candidate encoding instead of superposing
/// per-layer variance gains. The returned mean shifts off the clean
/// trajectory when it sits near a boundary pre-image.
///
/// `bins` is [`quantizer_grid`] for the plain quantizer. A downstream
/// deterministic, monotone re-quantization of the grid (e.g. the PLA
/// pulse-count snap of the next crossbar layer's encoder) composes in
/// closed form by remapping the bins: the activation distribution lives
/// entirely on the bin values, so remapped bins — not a perturbed
/// propagated mean — give the exact post-snap mean and variance.
/// Snapping a propagated *mean* instead would charge the walk a phantom
/// representation error on every element whose expected value falls
/// between grid points, even when every realizable activation is
/// exactly representable.
///
/// The gain is `κ = Cov(q(tanh Z), Z) / Var(Z)`. By Stein's lemma,
/// `Cov(f(Z), Z) = Var(Z)·E[f′(Z)]` for Gaussian `Z`; the fused stage is
/// a step function with a jump of `bins[k+1] − bins[k]` at the boundary
/// pre-image `a_k = atanh(b_k)`, so
/// `κ = Σ_k (bins[k+1] − bins[k])·φ((a_k − m)/s)/s` in closed form. The
/// gain is what a covariance-aware contraction downstream needs: under
/// the Gaussian closure,
/// `Cov(q(tanh Z_i), q(tanh Z_j)) ≈ κ_i·κ_j·Cov(Z_i, Z_j)` for `i ≠ j`,
/// while the diagonal keeps the exact per-element variance. Zero input
/// variance yields zero gain (the a.e. derivative of a step).
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for fewer than 2 bins and
/// [`TensorError::ShapeMismatch`] when `mean` and `var` differ in shape.
pub fn tanh_quantize_moments(
    mean: &Tensor,
    var: &Tensor,
    bins: &[f32],
) -> Result<(Tensor, Tensor, Tensor)> {
    let levels = bins.len();
    if levels < 2 {
        return Err(TensorError::InvalidArgument(format!(
            "quantizer needs ≥ 2 levels, got {levels}"
        )));
    }
    check_same_shape("tanh_quantize_moments", mean, var)?;
    let l = (levels - 1) as f32;
    let nb = levels - 1;
    // pre-images of the interior rounding boundaries b_k = (2k−1)/l − 1,
    // padded with +∞ to whole lane passes (a padded lane is never read)
    let mut pre_bounds: Vec<f32> = (1..levels)
        .map(|k| ((2.0 * k as f32 - 1.0) / l - 1.0).atanh())
        .collect();
    pre_bounds.resize(nb.div_ceil(LANES) * LANES, f32::INFINITY);
    let inv_sqrt_2pi = 1.0 / (2.0 * std::f32::consts::PI).sqrt();
    let ms = mean.as_slice();
    let vs = var.as_slice();
    let mut q_mean = vec![0.0f32; ms.len()];
    let mut q_var = vec![0.0f32; ms.len()];
    let mut q_gain = vec![0.0f32; ms.len()];
    // Boundaries beyond ±ZMAX·s carry no f32-visible probability mass
    // (Φ(−8) ≈ 6e−16): an element whose window misses every boundary —
    // the common case for saturated activations after tanh in a binary
    // network — reduces to a bin lookup with no transcendental calls.
    const ZMAX: f32 = 8.0;
    for (i, (&m, &v)) in ms.iter().zip(vs).enumerate() {
        if v <= 0.0 {
            // deterministic passthrough: the bin the clean value rounds to
            let idx = ((tanh(m).clamp(-1.0, 1.0) + 1.0) / 2.0 * l).round() as usize;
            q_mean[i] = bins[idx.min(nb)];
            continue;
        }
        let s = v.sqrt();
        if m - ZMAX * s > pre_bounds[nb - 1] {
            q_mean[i] = bins[nb];
            continue;
        }
        if m + ZMAX * s < pre_bounds[0] {
            q_mean[i] = bins[0];
            continue;
        }
        // branchless lane passes over EVERY boundary: far-out lanes
        // contribute exact-to-f32 0/1 limits on their own, and the
        // independent lanes let the compiler vectorize the
        // transcendental work that dominates the walk
        let inv_s = 1.0 / s;
        let mut e1 = 0.0f32;
        let mut e2 = 0.0f32;
        let mut gain = 0.0f32;
        let mut lo = 0.0f32;
        for (lanes, first) in pre_bounds.chunks_exact(LANES).zip((0..nb).step_by(LANES)) {
            let (kern, cdfs) = gauss_lanes::<LANES>(lanes, m, inv_s);
            for (j, k) in (first..nb.min(first + LANES)).enumerate() {
                let hi = cdfs[j];
                let p = hi - lo;
                let g = bins[k];
                e1 += p * g;
                e2 += p * g * g;
                gain += (bins[k + 1] - bins[k]) * kern[j];
                lo = hi;
            }
        }
        gain *= inv_sqrt_2pi * inv_s;
        let g = bins[nb];
        let p = 1.0 - lo;
        e1 += p * g;
        e2 += p * g * g;
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
    /// The deployment path (`membit-core`'s level periphery) computes
    /// `q(tanh x)` of a pre-activation `x` as level `k`, the number of
    /// `device_eval::level_thresholds` at or below `x`, read as
    /// `k/l·2 − 1`.
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
        // misestimates flip probabilities — from the coarsest quantizer
        // to ones finer than any deployment runs
        let mut rng = Rng::from_seed(321);
        for levels in [2usize, 9, 34, 64] {
            let l = (levels - 1) as f32;
            for &(m, s) in &[
                (0.12f32, 0.05f32), // near atanh-boundary, small noise
                (0.6, 0.2),
                (-1.2, 0.1), // saturating region
                (0.0, 0.4),
            ] {
                let mean = Tensor::from_vec(vec![m], &[1, 1]).unwrap();
                let var = Tensor::from_vec(vec![s * s], &[1, 1]).unwrap();
                let (qm, qv, _) =
                    tanh_quantize_moments(&mean, &var, &quantizer_grid(levels)).unwrap();
                let trials = 80_000;
                let mut acc1 = 0.0f64;
                let mut acc2 = 0.0f64;
                for _ in 0..trials {
                    let q = f64::from(quantize_value(tanh(m + rng.normal(0.0, s)), l));
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
                    "{levels} levels, m={m} s={s}: analytic mean {am} vs mc {mc_mean}"
                );
                assert!(
                    (av - mc_var).abs() < 20.0 * se + 0.02 * mc_var + 1e-5,
                    "{levels} levels, m={m} s={s}: analytic var {av} vs mc {mc_var}"
                );
            }
        }
        // zero variance: exact fused passthrough
        let grid = quantizer_grid(9);
        let mean = Tensor::from_vec(vec![0.4], &[1, 1]).unwrap();
        let (qm, qv, _) = tanh_quantize_moments(&mean, &Tensor::zeros(&[1, 1]), &grid).unwrap();
        assert_eq!(qm.as_slice()[0], quantize_value(tanh(0.4), 8.0));
        assert_eq!(qv.as_slice()[0], 0.0);
        let zeros = Tensor::zeros(&[1, 1]);
        assert!(tanh_quantize_moments(&mean, &zeros, &quantizer_grid(1)).is_err());
        assert!(tanh_quantize_moments(&mean, &Tensor::zeros(&[2]), &grid).is_err());
    }

    #[test]
    fn stein_gain_matches_empirical_covariance() {
        // κ = Cov(q(tanh Z), Z)/Var(Z) — check the closed form against MC
        let levels = 9;
        let mut rng = Rng::from_seed(77);
        for &(m, s) in &[(0.1f32, 0.15f32), (-0.5, 0.3), (1.0, 0.1)] {
            let mean = Tensor::from_vec(vec![m], &[1, 1]).unwrap();
            let var = Tensor::from_vec(vec![s * s], &[1, 1]).unwrap();
            let (_, _, gain) = tanh_quantize_moments(&mean, &var, &quantizer_grid(levels)).unwrap();
            let trials = 120_000;
            let l = (levels - 1) as f32;
            let draws: Vec<(f64, f64)> = (0..trials)
                .map(|_| {
                    let e = rng.normal(0.0, s);
                    (f64::from(quantize_value(tanh(m + e), l)), f64::from(e))
                })
                .collect();
            let qbar = draws.iter().map(|(q, _)| q).sum::<f64>() / f64::from(trials);
            // centered estimator Cov = E[(q − q̄)·e] with its empirical SE
            let prods: Vec<f64> = draws.iter().map(|(q, e)| (q - qbar) * e).collect();
            let cov = prods.iter().sum::<f64>() / f64::from(trials);
            let pvar =
                prods.iter().map(|p| (p - cov) * (p - cov)).sum::<f64>() / f64::from(trials - 1);
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
        let zeros = Tensor::zeros(&[1, 1]);
        let (_, _, g) = tanh_quantize_moments(&mean, &zeros, &quantizer_grid(9)).unwrap();
        assert_eq!(g.as_slice()[0], 0.0);
    }

    /// Grid level `k`'s value after the PLA snap at `q` pulses: `round(k/l·q)`
    /// high pulses, an exact tie broken toward the level's sign, read as
    /// `high/q·2 − 1` (the rule of membit-encoding's `PlaThermometer`).
    fn pla_bins(levels: usize, q: usize) -> Vec<f32> {
        let l = (levels - 1) as f32;
        (0..levels)
            .map(|k| {
                let v = 2.0 * k as f32 / l - 1.0;
                let t = k as f32 / l * q as f32;
                let high = if (t - t.floor() - 0.5).abs() >= 1e-4 {
                    t.round()
                } else if v > 0.0 || (v == 0.0 && t.floor() as i64 % 2 == 1) {
                    t.ceil()
                } else {
                    t.floor()
                };
                high / q as f32 * 2.0 - 1.0
            })
            .collect()
    }

    /// FNV-1a over each value's bit pattern, little-endian byte by byte.
    fn fnv(mut h: u64, v: f32) -> u64 {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn quantizer_closure_is_pinned_for_2_to_33_levels() {
        // (mean, variance) pairs: zero variance, saturated at either end,
        // and spread; each level count adds two near its own boundaries
        let fixed = [
            (0.4f32, 0.0f32),
            (-0.3, 0.0),
            (3.5, 1e-4),
            (-3.5, 1e-4),
            (0.0, 0.16),
            (0.6, 0.04),
            (-1.2, 0.01),
            (0.2, 4.0),
        ];
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for levels in 2..=33usize {
            let l = (levels - 1) as f32;
            let pre = |k: usize| ((2.0 * k as f32 - 1.0) / l - 1.0).atanh();
            let mut pairs = fixed.to_vec();
            pairs.push((pre(levels / 2) + 0.01, 1e-4));
            pairs.push((pre(1) - 0.005, 4e-4));
            let (ms, vs): (Vec<f32>, Vec<f32>) = pairs.into_iter().unzip();
            let mean = Tensor::from_vec(ms, &[2, 5]).unwrap();
            let var = Tensor::from_vec(vs, &[2, 5]).unwrap();
            let plain: Vec<f32> = (0..levels).map(|k| 2.0 * k as f32 / l - 1.0).collect();
            for bins in [plain, pla_bins(levels, 10), pla_bins(levels, 14)] {
                let (m, v, g) = tanh_quantize_moments(&mean, &var, &bins).unwrap();
                for t in [&m, &v, &g] {
                    h = t.as_slice().iter().fold(h, |h, &x| fnv(h, x));
                }
            }
        }
        assert_eq!(
            h, 0xccc0_39a5_fee5_2d5e,
            "quantizer closure digest {h:#018x}"
        );
    }

    #[test]
    fn quantizer_moment_is_nonlinear_in_variance() {
        // doubling the input variance does NOT double the output moment —
        // the property that forces per-config walks in the GBO scorer
        let mean = Tensor::from_vec(vec![0.1], &[1, 1]).unwrap();
        let v1 = Tensor::from_vec(vec![0.001], &[1, 1]).unwrap();
        let v2 = Tensor::from_vec(vec![0.002], &[1, 1]).unwrap();
        let (_, e1, _) = tanh_quantize_moments(&mean, &v1, &quantizer_grid(8)).unwrap();
        let (_, e2, _) = tanh_quantize_moments(&mean, &v2, &quantizer_grid(8)).unwrap();
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
