//! The activation `tanh`, ported bit for bit from glibc and branch-free.
//!
//! [`tanh`] and the [`expm1f`] it calls reproduce glibc 2.36's x86-64
//! `tanhf` and `expm1f`. Those are plain symbols, not ifuncs, compiled
//! from fdlibm's `s_tanhf.c` and `s_expm1f.c` (glibc's
//! `sysdeps/ieee754/flt-32`):
//!
//! > Conversion to float by Ian Lance Taylor, Cygnus Support.
//! > Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//! > Developed at SunPro, a Sun Microsystems, Inc. business.
//! > Permission to use, copy, modify, and distribute this software is
//! > freely granted, provided that this notice is preserved.
//!
//! glibc builds them for SSE2 without FMA, so every step of the C source
//! is one `f32` operation rounded once. The ports write each with
//! operators, which rustc never fuses, so they round where glibc's do.
//!
//! glibc branches on the input's magnitude. The ports compute every case
//! and pick the result by bit mask, so a loop over a slice vectorizes
//! (the reconstruction's per-lane shifts need AVX2, which
//! `.cargo/config.toml` enables). [`tanh`] equals glibc's `tanhf` on
//! every `f32` and maps NaN to NaN; glibc's is not correctly rounded (it
//! errs by up to 2.19 ULP). The unit tests pin it by digest over a stride
//! of all bit patterns and over every pattern. DESIGN §20.

/// ln 2 split so that `k·LN2_HI` is exact for the `k` reached.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
/// 1/ln 2.
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// `r1 = 1 + h·(Q1 + h·(Q2 + h·(Q3 + h·(Q4 + h·Q5))))`, `h = x²/2`.
const Q: [f32; 5] = [
    f32::from_bits(0xbd08_8889),
    f32::from_bits(0x3ad0_0d01),
    f32::from_bits(0xb8a6_70cd),
    f32::from_bits(0x3686_7e54),
    f32::from_bits(0xb457_edbb),
];

/// `a` where `mask` holds, else `b`: a select by bit mask, not a branch.
#[inline(always)]
fn pick(mask: bool, a: f32, b: f32) -> f32 {
    let m = 0u32.wrapping_sub(u32::from(mask));
    f32::from_bits(a.to_bits() & m | b.to_bits() & !m)
}

/// `eˣ − 1` for the arguments [`tanh`] passes: `−2 < x ≤ 0` and
/// `2 ≤ x < 44`.
///
/// Reduces `x = k·ln2 + r` (`r` rounded, `c` its error), evaluates
/// `expm1(r)` by a rational approximation, and scales by `2^k`, adding
/// `k` to the exponent field. glibc rebuilds the result in six ways:
/// `k = 0`, `−1`, `1`; `k ≤ −2` or `k > 56`; `2 ≤ k < 23`; `k ≥ 23`. On
/// this domain `k = 1` never occurs, so the port has five.
#[inline(always)]
fn expm1f(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let sign = x.to_bits() & 0x8000_0000;
    // below 2⁻²⁵ the result is x itself (last line); the steps run on 0
    // instead, because x's powers would turn subnormal, and every
    // subnormal step costs a microcode assist of about a hundred cycles
    let tiny = hx < 0x3300_0000;
    let w = pick(tiny, 0.0, x);
    // k: 0 up to 0.5·ln2, else trunc(x/ln2 ± 0.5). glibc's separate
    // branch below 1.5·ln2 (k = ±1, hi = x ∓ ln2_hi, lo = ±ln2_lo) is the
    // same: in f32 the formula gives ±1 on that whole band.
    let kf = (INVLN2 * w + f32::from_bits(0x3f00_0000 | sign)).trunc();
    let kf = pick(hx <= 0x3eb1_7218, 0.0, kf);
    // adding 1.5·2²³ leaves the integer k in the low bits; unlike
    // `as i32`, which saturates, this vectorizes
    let k = (kf + 12_582_912.0).to_bits().wrapping_sub(0x4b40_0000) as i32;
    // at k = 0: hi = r = x, c = 0, as glibc leaves them
    let hi = w - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;
    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q[0] + hxs * (Q[1] + hxs * (Q[2] + hxs * (Q[3] + hxs * Q[4]))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    let at_0 = r - (r * e - hxs);
    let e = r * (e - c) - c - hxs;
    let at_m1 = 0.5 * (r - e) - 0.5;
    // 2^k·y by adding k to y's exponent field
    let scale = |y: f32| f32::from_bits(y.to_bits().wrapping_add((k as u32) << 23));
    let far = scale(1.0 - (e - r)) - 1.0;
    // 1 − 2^−k, read for 2 ≤ k < 23 only (the shift is per lane)
    let low = f32::from_bits(0x3f80_0000 - 0x0100_0000u32.wrapping_shr(k as u32));
    let mid = scale(low - (e - r));
    // 2^−k, read for 23 ≤ k ≤ 56 only
    let tiny_k = f32::from_bits(0x7fu32.wrapping_sub(k as u32) << 23);
    let high = scale(r - (e + tiny_k) + 1.0);
    let y = pick(k >= 23, high, mid);
    let y = pick((k <= -2) | (k > 56), far, y);
    let y = pick(k == -1, at_m1, y);
    let y = pick(k == 0, at_0, y);
    pick(tiny, x, y)
}

/// The hyperbolic tangent, bitwise equal to glibc 2.36's `tanhf` on every
/// `f32` (NaN maps to NaN), whatever libm the host has.
///
/// Below 22 it is `±(1 − 2/(t + 2))` with `t = expm1(2|x|)` from
/// `|x| = 1` up, and `±(−t/(t + 2))` with `t = expm1(−2|x|)` below; one
/// division serves both. From 22 (and at ±∞) it is `±(1 − 10⁻³⁰)`,
/// which rounds to ±1. glibc returns `(1 + x)·x` below 2⁻⁵⁵, which is
/// `x`; so is `−t/(t + 2)` there (`expm1f` returns `−2|x|` and halving it
/// is exact), so the port has no case of its own for it.
///
/// ```
/// assert_eq!(membit_tensor::tanh(0.0), 0.0);
/// assert_eq!(membit_tensor::tanh(-30.0), -1.0);
/// assert!((membit_tensor::tanh(0.5) - 0.462_117_16).abs() < 1e-7);
/// ```
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let ix = x.to_bits() & 0x7fff_ffff;
    let sign = x.to_bits() & 0x8000_0000;
    let a = f32::from_bits(ix);
    let big = ix >= 0x3f80_0000;
    let t = expm1f(pick(big, a + a, -2.0 * a));
    let q = pick(big, 2.0, -t) / (t + 2.0);
    let z = pick(big, 1.0 - q, q);
    let z = pick(ix >= 0x41b0_0000, 1.0 - 1.0e-30, z);
    let z = f32::from_bits(z.to_bits() ^ sign);
    // NaN: glibc's 1/x ± 1 returns x quieted, as x + x does
    pick(ix > 0x7f80_0000, x + x, z)
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::gauss::tests::{fnv, ulps};

    const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

    /// Digests `f` over `bits` in order (the map vectorizes).
    fn digest(f: impl Fn(f32) -> f32, h: u64, bits: &[u32]) -> u64 {
        let y: Vec<f32> = bits.iter().map(|&b| f(f32::from_bits(b))).collect();
        y.iter().fold(h, |h, &y| fnv(h, y))
    }

    /// Every 256th bit pattern, then every pattern within 64 of each
    /// case boundary: ±0, ±2⁻⁵⁵ (glibc's tiny case), ±2⁻²⁶, ±0.25·ln2 and
    /// ±0.75·ln2 (`expm1f`'s tiny case and the ends of glibc's k = 0 and
    /// k = ±1 branches, halved because `tanh` passes 2|x|), ±1 (the sign
    /// of the argument), ±22 and ±∞ with the NaNs beyond. Each output is NaN for NaN and
    /// within 2.5 ULP of `f64` tanh otherwise (glibc's worst is 2.19).
    /// The digest was recorded when `tanh` matched glibc 2.36's `tanhf`
    /// on all 2³² patterns.
    #[test]
    #[allow(clippy::disallowed_methods)]
    fn tanh_pins_a_stride_and_every_case_edge() {
        let edges: [i32; 8] = [
            0,
            0x2400_0000,
            0x3280_0000,
            0x3e31_7218,
            0x3f05_1592,
            0x3f80_0000,
            0x41b0_0000,
            0x7f80_0000,
        ];
        let mut bits: Vec<u32> = (0..1u32 << 24).map(|i| i << 8).collect();
        for edge in edges {
            for sign in [0, 0x8000_0000] {
                let near = (-64..=64).map(|d| edge.wrapping_add(d) as u32);
                // below ±0 lie the largest NaNs; skip them
                bits.extend(near.filter(|b| edge != 0 || b >> 31 == 0).map(|b| b | sign));
            }
        }
        for x in bits.iter().copied().map(f32::from_bits) {
            let y = tanh(x);
            if x.is_nan() {
                assert!(y.is_nan(), "tanh({x}) = {y:e}");
            } else {
                let e = ulps(y, f64::from(x).tanh());
                assert!(e < 2.5, "tanh({x:e}) = {y:e}, {e} ULP");
            }
        }
        let h = bits.chunks(4096).fold(FNV_BASIS, |h, c| digest(tanh, h, c));
        assert_eq!(h, 0xac92_f161_80d6_406d, "tanh digest {h:#018x}");
    }

    /// Every 64th argument `tanh` passes below 0, every 4th from 2 to 44,
    /// and every argument within 64 of each boundary between `expm1f`'s
    /// cases: −2⁻²⁵, k = 0/−1/−2/−3 (about −0.5, −1.5 and −2.5·ln2) and
    /// k = 22/23 and 56/57 (about 22.5 and 56.5·ln2). Through `tanh` the
    /// bits of a large `t` are invisible (`1 − 2/(t + 2)` rounds them
    /// away), so this pins them. The digest was recorded when `expm1f`
    /// matched glibc 2.36's on every argument `tanh` passes.
    #[test]
    fn expm1f_pins_a_stride_of_the_arguments_tanh_passes() {
        let below = (0x8000_0000..0xc000_0000u32).step_by(64);
        let above = (0x4000_0000..0x4230_0000u32).step_by(4);
        let mut bits: Vec<u32> = below.chain(above).collect();
        let edges =
            [-0.5f32, -1.5, -2.5, 22.5, 56.5].map(|k| (k * std::f32::consts::LN_2).to_bits());
        for edge in edges.into_iter().chain([0xb300_0000]) {
            bits.extend(edge - 64..=edge + 64);
        }
        let h = bits
            .chunks(4096)
            .fold(FNV_BASIS, |h, c| digest(expm1f, h, c));
        assert_eq!(h, 0xff54_8ef1_c46e_5f42, "expm1f digest {h:#018x}");
    }

    /// `Tensor::tanh`'s loop vectorizes under optimized codegen (the
    /// test profile's and, in CI, release's); its head, vector body and
    /// tail must each equal the scalar port on inputs from every case.
    #[test]
    fn tensor_tanh_matches_the_scalar_port_bitwise() {
        for len in [0, 1, 7, 8, 9, 31, 32, 33, 1000] {
            let x: Vec<f32> = (0..len)
                .map(|i| match i % 11 {
                    3 => f32::NAN,
                    5 => -0.0,
                    7 => 3.0e-18,
                    9 => -30.0,
                    _ => (i * 37 % 1000) as f32 / 40.0 - 12.5,
                })
                .collect();
            let y = crate::Tensor::from_vec(x.clone(), &[len]).unwrap().tanh();
            for (x, y) in x.iter().zip(y.as_slice()) {
                assert_eq!(y.to_bits(), tanh(*x).to_bits(), "len {len}, tanh({x:e})");
            }
        }
    }

    /// All 2³² bit patterns, in 256 runs of 2²⁴ whose digests are
    /// digested in order.
    #[test]
    #[ignore = "walks all 2^32 bit patterns, about 25 s in release on two threads"]
    fn tanh_pins_every_f32() {
        let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
        let runs = crate::parallel::scoped_chunks(&mut [(); 256], 1, threads, |run, _| {
            (0..1u32 << 12).fold(FNV_BASIS, |h, block| {
                let first = (run as u32) << 24 | block << 12;
                digest(tanh, h, &(first..=first + 4095).collect::<Vec<_>>())
            })
        });
        // each run's digest as its low and high halves: its 8 bytes in order
        let h = runs.iter().fold(FNV_BASIS, |h, &run| {
            let half = |bits: u64| f32::from_bits(bits as u32);
            fnv(fnv(h, half(run)), half(run >> 32))
        });
        assert_eq!(h, 0xe368_cc92_88c2_05ac, "tanh digest {h:#018x}");
    }
}
