//! The two transcendental functions of the Box–Muller read-noise sampler,
//! ported bit for bit from glibc and valid on the sampler's domains only.
//!
//! [`logf`] and [`sincosf`] reproduce the x86-64 FMA variants of glibc
//! 2.36's `logf` and `sincosf` (`__logf_fma`, `__sincosf_fma`, the
//! functions its ifunc resolvers pick on CPUs with FMA and AVX2). Those
//! are compiled from the ARM optimized-routines algorithms, which glibc
//! and musl both ship:
//!
//! > Adapted from ARM optimized-routines `math/logf.c`, `math/logf_data.c`,
//! > `math/sincosf.c`, `math/sincosf.h` and `math/sincosf_data.c`.
//! > Copyright (c) 2017-2018, Arm Limited. SPDX-License-Identifier: MIT.
//!
//! Each evaluates in `f64` and rounds once to `f32`. glibc builds these
//! variants with `-mfma`, so every `a·b + c` of the C source is one fused
//! multiply-add; the ports write each as [`f64::mul_add`], which is
//! correctly rounded with or without the `fma` target feature. Rust never
//! fuses a plain `a * b + c`, so the products and sums written with
//! operators round exactly where glibc's do.
//!
//! The ports drop every branch the domains cannot reach (zero, negative,
//! subnormal and non-finite inputs; sine and cosine beyond 120), so a
//! loop over a block of inputs vectorizes. The unit test walks both
//! domains exhaustively, 2²⁴ inputs each, against a digest recorded when
//! the ports matched glibc's `logf` and `sincosf` on every input, and
//! bounds each output's error against an `f64` reference. DESIGN §19.

/// `(1/c, ln c)` for the 16 subintervals of `[OFF, 2·OFF)` (`logf_data.c`).
const LOGF_TAB: [(f64, f64); 16] = [
    (f(0x3ff6_61ec_79f8_f3be), f(0xbfd5_7bf7_808c_aade)),
    (f(0x3ff5_71ed_4aaf_883d), f(0xbfd2_bef0_a7c0_6ddb)),
    (f(0x3ff4_9539_f0f0_10b0), f(0xbfd0_1eae_7f51_3a67)),
    (f(0x3ff3_c995_b0b8_0385), f(0xbfcb_31d8_a682_24e9)),
    (f(0x3ff3_0d19_0c88_64a5), f(0xbfc6_574f_0ac0_7758)),
    (f(0x3ff2_5e22_7b0b_8ea0), f(0xbfc1_aa2b_c79c_8100)),
    (f(0x3ff1_bb4a_4a1a_343f), f(0xbfba_4e76_ce8c_0e5e)),
    (f(0x3ff1_2358_f08a_e5ba), f(0xbfb1_973c_5a61_1ccc)),
    (f(0x3ff0_953f_4199_00a7), f(0xbfa2_52f4_38e1_0c1e)),
    (1.0, 0.0),
    (f(0x3fee_608c_fd9a_47ac), f(0x3faa_a5aa_5df2_5984)),
    (f(0x3fec_a4b3_1f02_6aa0), f(0x3fbc_5e53_aa36_2eb4)),
    (f(0x3feb_2036_576a_fce6), f(0x3fc5_26e5_7720_db08)),
    (f(0x3fe9_c2d1_63a1_aa2d), f(0x3fcb_c286_0d22_4770)),
    (f(0x3fe8_86e6_0378_41ed), f(0x3fd1_058b_c8a0_7ee1)),
    (f(0x3fe7_67dc_f553_4862), f(0x3fd4_0430_57b6_ee09)),
];
/// ln 2.
const LN2: f64 = f(0x3fe6_2e42_fefa_39ef);
/// `log1p(r) ≈ r + A2·r² + A1·r³ + A0·r⁴`.
const LOGF_A: [f64; 3] = [
    f(0xbfd0_0ea3_48b8_8334),
    f(0x3fd5_575b_0be0_0b6a),
    f(0xbfdf_fffe_f20a_4123),
];

/// `2/π · 2²⁴`: the quadrant lands in bits 24 and up (`sincosf_data.c`).
const HPI_INV: f64 = f(0x4164_5f30_6dc9_c883);
/// π/2.
const HPI: f64 = f(0x3ff9_21fb_5444_2d18);
/// Cosine polynomial `c0 + c1·x² + c2·x⁴ + (c3 + c4·x²)·x⁶`.
const COS: [f64; 5] = [
    1.0,
    f(0xbfdf_ffff_fd0c_621c),
    f(0x3fa5_5553_e106_8f19),
    f(0xbf56_c087_e89a_359d),
    f(0x3ef9_9343_027b_f8c3),
];
/// Sine polynomial `x + s1·x³ + (s2 + s3·x²)·x⁵`.
const SIN: [f64; 3] = [
    f(0xbfc5_5554_5995_a603),
    f(0x3f81_1076_0523_0bc4),
    f(0xbf29_94eb_3774_cf24),
];

const fn f(bits: u64) -> f64 {
    f64::from_bits(bits)
}

/// `ln x` for `x = 1 − k·2⁻²⁴`, `0 ≤ k < 2²⁴`: the Box–Muller `u1`.
///
/// Writes `x = 2^e·z` with `z` in `[OFF, 2·OFF)`, looks up `1/c` and
/// `ln c` for the subinterval around `z`, and evaluates
/// `ln x = log1p(z/c − 1) + ln c + e·ln 2` with a degree-4 polynomial.
/// Outside positive normal `x` the result is meaningless.
#[inline(always)]
pub(crate) fn logf(x: f32) -> f32 {
    const OFF: u32 = 0x3f33_0000;
    let ix = x.to_bits();
    let tmp = ix.wrapping_sub(OFF);
    let i = (tmp >> 19) as usize % 16;
    // arithmetic shift: the exponent is negative below OFF
    let e = (tmp as i32) >> 23;
    let z = f32::from_bits(ix.wrapping_sub(tmp & 0xff80_0000)) as f64;
    let (invc, logc) = LOGF_TAB[i];
    let r = z.mul_add(invc, -1.0);
    let y0 = (e as f64).mul_add(LN2, logc);
    let r2 = r * r;
    let y = r.mul_add(LOGF_A[1], LOGF_A[2]);
    let y = r2.mul_add(LOGF_A[0], y);
    y.mul_add(r2, y0 + r) as f32
}

/// `(sin θ, cos θ)` for `θ = 2π·k·2⁻²⁴`, `0 ≤ k < 2²⁴`: the Box–Muller
/// angle (any `|θ| < 120` reduces correctly).
///
/// Below 2⁻¹² the result is `(θ, 1)`. Otherwise `θ` is reduced by the
/// nearest multiple `n·π/2` to `x` in `[−π/4, π/4]`, and the quadrant
/// `n & 3` picks the signs and whether the two polynomials swap. For
/// `θ < π/4` the reduction is exact (`n = 0`), which is glibc's
/// unreduced path.
#[inline(always)]
pub(crate) fn sincosf(theta: f32) -> (f32, f32) {
    // The quadrant's choices are sign flips and swaps by bit mask, not
    // branches: a random angle would mispredict them, and a loop over a
    // block would not vectorize.
    let t = theta as f64;
    // glibc's quadrant `((int)(t·hpi_inv) + 2²³) >> 24`, in f64: truncate,
    // add, scale and floor are each exact here, and unlike `as i32` they
    // vectorize
    let nf = (((t * HPI_INV).trunc() + 8_388_608.0) * (1.0 / 16_777_216.0)).floor();
    // adding 1.5·2⁵² leaves the integer n in the low bits
    let n = (nf + 6_755_399_441_055_744.0).to_bits() as u32;
    let x = (-nf).mul_add(HPI, t);
    // sine's sign per quadrant: + − − +
    let x = f64::from_bits(x.to_bits() ^ u64::from(n.wrapping_add(1) & 2) << 62);
    let x2 = x * x;
    let x3 = x2 * x;
    let x4 = x2 * x2;
    let x5 = x3 * x2;
    let x6 = x4 * x2;
    let s1 = x2.mul_add(SIN[2], SIN[1]);
    let s = x3.mul_add(SIN[0], x);
    let sin = (x5.mul_add(s1, s) as f32).to_bits();
    let c1 = x2.mul_add(COS[1], COS[0]);
    let c2 = x2.mul_add(COS[4], COS[3]);
    let c = x4.mul_add(COS[2], c1);
    // glibc's second table, for quadrants 2 and 3, negates every cosine
    // coefficient, which negates each rounded step exactly (the cosine
    // polynomial never reaches zero)
    let cos = (x6.mul_add(c2, c) as f32).to_bits() ^ (n & 2) << 30;
    // odd quadrants swap the two
    let swap = (sin ^ cos) & 0u32.wrapping_sub(n & 1);
    let (sin, cos) = (sin ^ swap, cos ^ swap);
    // below 2⁻¹²: (θ, 1)
    let tiny = 0u32.wrapping_sub(u32::from(theta.abs() < 1.0 / 4096.0));
    (
        f32::from_bits(sin & !tiny | theta.to_bits() & tiny),
        f32::from_bits(cos & !tiny | 1.0f32.to_bits() & tiny),
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// FNV-1a over each output's bit pattern, little-endian byte by byte.
    pub(crate) fn fnv(mut h: u64, v: f32) -> u64 {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// `|got − reference|` in units of the `f32` spacing at `reference`.
    pub(crate) fn ulps(got: f32, reference: f64) -> f64 {
        let at = (reference.abs() as f32).max(f32::MIN_POSITIVE);
        let spacing = f32::from_bits(at.to_bits() + 1) - at;
        (f64::from(got) - reference).abs() / f64::from(spacing)
    }

    /// Every `u1` and every `θ` the sampler can draw. The digests were
    /// recorded when both ports matched glibc 2.36's `logf` and `sincosf`
    /// (x86-64, FMA variants) on all 2²⁴ inputs of each. The largest
    /// errors over the domains are 0.79 ULP (`ln`) and 0.56 ULP (`sin`,
    /// `cos`); one ULP is asserted.
    #[test]
    fn ports_pin_both_domains_exhaustively() {
        let mut ln_digest = 0xcbf2_9ce4_8422_2325;
        let mut sincos_digest = ln_digest;
        for k in 0..1u32 << 24 {
            // the sampler's uniform, u1 and θ (rng.rs)
            let u = k as f32 * (1.0 / (1u32 << 24) as f32);
            let u1 = 1.0 - u;
            let theta = 2.0 * std::f32::consts::PI * u;
            let y = logf(u1);
            let (s, c) = sincosf(theta);
            let (rs, rc) = f64::from(theta).sin_cos();
            assert!(ulps(y, f64::from(u1).ln()) < 1.0, "logf({u1:e}) = {y:e}");
            assert!(ulps(s, rs) < 1.0, "sin({theta:e}) = {s:e}");
            assert!(ulps(c, rc) < 1.0, "cos({theta:e}) = {c:e}");
            ln_digest = fnv(ln_digest, y);
            sincos_digest = fnv(fnv(sincos_digest, s), c);
        }
        assert_eq!(
            ln_digest, 0x97f1_59ab_1f7b_cb33,
            "logf digest {ln_digest:#018x}"
        );
        assert_eq!(
            sincos_digest, 0x10b8_03ef_4d07_34d2,
            "sincosf digest {sincos_digest:#018x}"
        );
    }
}
