//! Deterministic random number generation.
//!
//! Every experiment in the workspace takes a single `u64` seed; purposes
//! (weight init, data generation, crossbar noise, device variation) each get
//! an independent substream derived with [`Rng::stream`], so adding noise
//! samples in one place never perturbs the data another component sees.

use crate::gauss::{logf, sincosf};
use crate::Tensor;

/// Box–Muller pairs drawn and transformed together by the slice samplers.
const BLOCK: usize = 32;

/// Named substreams derived from a root seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RngStream {
    /// Weight and parameter initialization.
    Init,
    /// Dataset generation, shuffling and augmentation.
    Data,
    /// Functional crossbar noise (the paper's `N(0, σ²)`).
    Noise,
    /// Device-to-device variation in the device-level simulator.
    Device,
    /// Anything else; the payload separates custom streams.
    Custom(u64),
}

impl RngStream {
    fn tag(self) -> u64 {
        match self {
            RngStream::Init => 0x1157_0001,
            RngStream::Data => 0xDA7A_0002,
            RngStream::Noise => 0x2015_0003,
            RngStream::Device => 0xDE1C_0004,
            RngStream::Custom(v) => 0xC057_0005 ^ v.rotate_left(17),
        }
    }
}

/// A seeded random number generator with Gaussian sampling.
///
/// The core generator is xoshiro256++ seeded through splitmix64 — both
/// implemented in-crate so the workspace has no external RNG dependency
/// and results are bit-reproducible across platforms. Gaussian values
/// come from the Box–Muller transform so the workspace does not need
/// `rand_distr`.
///
/// ```
/// use membit_tensor::{Rng, RngStream};
/// let mut a = Rng::from_seed(42).stream(RngStream::Noise);
/// let mut b = Rng::from_seed(42).stream(RngStream::Noise);
/// assert_eq!(a.normal(0.0, 1.0), b.normal(0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    state: [u64; 4],
    seed: u64,
    cached_normal: Option<f32>,
}

/// The splitmix64 finalizer: a full-avalanche mix of one 64-bit word.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn splitmix64(z: &mut u64) -> u64 {
    *z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    mix64(*z)
}

impl Rng {
    /// Creates a generator from a root seed.
    pub fn from_seed(seed: u64) -> Self {
        let mut z = seed;
        let state = [
            splitmix64(&mut z),
            splitmix64(&mut z),
            splitmix64(&mut z),
            splitmix64(&mut z),
        ];
        Self {
            state,
            seed,
            cached_normal: None,
        }
    }

    /// The next raw 64-bit output (xoshiro256++).
    fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = &mut self.state;
        xoshiro(s0, s1, s2, s3)
    }

    /// Uniform sample in `[0, 1)` with 24 bits of precision.
    fn next_f32(&mut self) -> f32 {
        unit_f32(self.next_u64())
    }

    /// Derives an independent generator for a named purpose.
    ///
    /// Streams are a pure function of `(root seed, purpose)`, so the same
    /// pair always yields the same sequence regardless of draw order
    /// elsewhere.
    pub fn stream(&self, purpose: RngStream) -> Rng {
        // splitmix64-style mix of the root seed with the purpose tag
        Rng::from_seed(mix64(
            self.seed ^ purpose.tag().wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ))
    }

    /// Derives an independent generator from this generator's root seed
    /// and a sequence of counter keys — counter-based substream
    /// derivation in the Philox/PCG spirit.
    ///
    /// The result is a pure function of `(seed, keys)`: it does not
    /// consume state from `self`, and the same `(seed, keys)` pair always
    /// yields the same sequence regardless of what has been drawn
    /// elsewhere or on which thread the derivation happens. The parallel
    /// crossbar engine keys its noise streams by
    /// `(nonce, pulse, sample, row_tile, col_tile)` so every noise draw
    /// is bitwise identical for any thread count and schedule.
    ///
    /// Derivations chain: `rng.substream(&[a]).substream(&[b])` is a
    /// well-defined stream distinct from `rng.substream(&[a, b])`.
    pub fn substream(&self, keys: &[u64]) -> Rng {
        let mut z = self.seed;
        for (i, &k) in keys.iter().enumerate() {
            // mix each key with its position so [a, b] and [b, a] (and
            // [x] vs [0, x]) land on unrelated streams
            z = mix64(z ^ mix64(k ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        }
        Rng::from_seed(z)
    }

    /// Draws a 64-bit nonce, advancing this generator.
    ///
    /// Callers that fan work out over [`substream`](Self::substream)
    /// draw one nonce per top-level operation and include it in every
    /// derivation key, so repeated operations on the same generator see
    /// fresh (but still reproducible) noise.
    pub fn next_nonce(&mut self) -> u64 {
        self.next_u64()
    }

    /// The root seed this generator was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Uniform sample in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.next_f32()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0) is meaningless");
        // widening-multiply range reduction (Lemire): unbiased enough for
        // simulation purposes and branch-free
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn coin(&mut self, p: f32) -> bool {
        self.next_f32() < p
    }

    /// The two uniforms of one Box–Muller pair, `u1` in `(0, 1]` (so
    /// `ln u1` is finite) and `u2` in `[0, 1)`.
    #[inline(always)]
    fn box_muller_uniforms(&mut self) -> (f32, f32) {
        let u1 = 1.0 - self.next_f32();
        (u1, self.next_f32())
    }

    /// One fresh Box–Muller pair: the first sample already scaled to
    /// `(mean, std)`, the second as the raw unit spare `r·sinθ` (scaled at
    /// use time, exactly like [`normal`](Self::normal)'s cache).
    #[inline]
    fn normal_fresh_pair(&mut self, mean: f32, std: f32) -> (f32, f32) {
        let (u1, u2) = self.box_muller_uniforms();
        let (r, cos, spare) = box_muller(u1, u2);
        (mean + std * r * cos, spare)
    }

    /// Gaussian sample via Box–Muller.
    pub fn normal(&mut self, mean: f32, std: f32) -> f32 {
        if let Some(z) = self.cached_normal.take() {
            return mean + std * z;
        }
        let (value, spare) = self.normal_fresh_pair(mean, std);
        self.cached_normal = Some(spare);
        value
    }

    /// Fills `out` with i.i.d. `N(mean, std)` samples, consuming both
    /// Box–Muller outputs per uniform pair directly instead of routing the
    /// spare through the per-call cache, and transforming the pairs in
    /// blocks.
    ///
    /// Draw-for-draw bit-compatible with `out.len()` sequential
    /// [`normal`](Self::normal) calls: any pre-existing cached spare is
    /// consumed first and a trailing odd sample leaves its spare cached,
    /// so mixing `normal_fill` with `normal` never shifts the stream.
    pub fn normal_fill(&mut self, mean: f32, std: f32, out: &mut [f32]) {
        self.normal_slice(mean, std, out, |o, v| *o = v);
    }

    /// Adds i.i.d. `N(0, std)` noise to every element of `out` — the
    /// accumulate form of [`normal_fill`](Self::normal_fill), with the
    /// same bit-compatibility guarantee.
    pub fn normal_accum(&mut self, std: f32, out: &mut [f32]) {
        self.normal_slice(0.0, std, out, |o, v| *o += v);
    }

    /// Hands `apply` each element of `out` with the value that many
    /// sequential `normal(mean, std)` calls return.
    fn normal_slice(
        &mut self,
        mean: f32,
        std: f32,
        out: &mut [f32],
        apply: impl Fn(&mut f32, f32),
    ) {
        let mut out = out;
        if self.cached_normal.is_some() {
            let Some((first, rest)) = out.split_first_mut() else {
                return;
            };
            apply(first, self.normal(mean, std));
            out = rest;
        }
        let mut pairs = PairBlocks::new(out.len().div_ceil(2));
        for o in out.chunks_mut(2) {
            let (r, cos, spare) = pairs.next(self);
            apply(&mut o[0], mean + std * r * cos);
            match o.get_mut(1) {
                Some(b) => apply(b, mean + std * spare),
                None => self.cached_normal = Some(spare),
            }
        }
    }

    /// Adds `N(0, factor·√vars[j])` noise to `out[j]`, skipping (and
    /// drawing nothing for) every element with `vars[j] ≤ 0` — the
    /// per-column aggregated-variance pattern of the crossbar
    /// cycle-to-cycle read noise. A NaN variance is not skipped: it
    /// draws, and its element becomes NaN.
    ///
    /// Bit-compatible with the equivalent gated sequence of
    /// [`normal`](Self::normal) calls; the Box–Muller spare is kept in a
    /// local between gated draws and written back to the cache at the
    /// end.
    pub fn normal_accum_gated(&mut self, factor: f32, vars: &[f32], out: &mut [f32]) {
        let mut spare = self.cached_normal.take();
        // fresh pairs for the draws after the spare; same gate as below
        let gated = vars[..vars.len().min(out.len())]
            .iter()
            .filter(|&&v| v > 0.0 || v.is_nan())
            .count();
        let fresh = gated.saturating_sub(usize::from(spare.is_some()));
        let mut pairs = PairBlocks::new(fresh.div_ceil(2));
        for (o, &v) in out.iter_mut().zip(vars) {
            if v <= 0.0 {
                continue;
            }
            let std = factor * v.sqrt();
            match spare.take() {
                Some(z) => *o += 0.0 + std * z,
                None => {
                    let (r, cos, z) = pairs.next(self);
                    *o += 0.0 + std * r * cos;
                    spare = Some(z);
                }
            }
        }
        self.cached_normal = spare;
    }

    /// Draws Box–Muller pairs from up to `L` streams side by side: pair
    /// `i` of `rngs[l]` lands at index `i·L + l` of `r`, `cos` and
    /// `spare` as `(r, cos θ, r·sin θ)`, and every stream draws
    /// `r.len() / L` pairs. Each lane's uniforms come from its own
    /// stream in order and pass through the same transform as every
    /// other sampler's, so lane `l` holds bit for bit the pairs that
    /// `rngs[l]` would give drawn on its own, and the stream is left
    /// where those draws leave it. A spare that an earlier
    /// [`normal`](Self::normal) call cached stays cached. Lanes past
    /// `rngs.len()` run on an idle state and mean nothing.
    ///
    /// One stream's state chain is serial, so its draws cannot overlap;
    /// `L` chains stepped together can (the crossbar engine reads 8 or 16
    /// pulses' noise at once), and the transform runs over the whole
    /// buffer in one vectorized loop.
    ///
    /// # Panics
    ///
    /// Panics if `rngs` has more than `L` streams, or if `r`, `cos` and
    /// `spare` differ in length or hold a partial pair of lanes.
    pub fn pair_lanes<const L: usize>(
        rngs: &mut [Rng],
        r: &mut [f32],
        cos: &mut [f32],
        spare: &mut [f32],
    ) {
        assert!(
            rngs.len() <= L
                && r.len() == cos.len()
                && r.len() == spare.len()
                && r.len().is_multiple_of(L),
            "pair_lanes: {} streams into {L} lanes of {}/{}/{} outputs",
            rngs.len(),
            r.len(),
            cos.len(),
            spare.len()
        );
        let mut s = [[0u64; L]; 4];
        for (l, rng) in rngs.iter().enumerate() {
            for (w, &v) in s.iter_mut().zip(&rng.state) {
                w[l] = v;
            }
        }
        // the uniforms, `u1` into `r` and `u2` into `cos`, then the
        // transform in place
        for (u1, u2) in r.chunks_exact_mut(L).zip(cos.chunks_exact_mut(L)) {
            let [s0, s1, s2, s3] = &mut s;
            for (l, u) in u1.iter_mut().enumerate() {
                *u = 1.0 - unit_f32(xoshiro(&mut s0[l], &mut s1[l], &mut s2[l], &mut s3[l]));
            }
            for (l, u) in u2.iter_mut().enumerate() {
                *u = unit_f32(xoshiro(&mut s0[l], &mut s1[l], &mut s2[l], &mut s3[l]));
            }
        }
        for ((r, cos), spare) in r.iter_mut().zip(cos.iter_mut()).zip(spare.iter_mut()) {
            (*r, *cos, *spare) = box_muller(*r, *cos);
        }
        for (l, rng) in rngs.iter_mut().enumerate() {
            for (v, w) in rng.state.iter_mut().zip(&s) {
                *v = w[l];
            }
        }
    }

    /// Tensor of i.i.d. Gaussian samples, drawn as
    /// [`normal_fill`](Self::normal_fill) draws them.
    pub fn normal_tensor(&mut self, shape: &[usize], mean: f32, std: f32) -> Tensor {
        let mut t = Tensor::zeros(shape);
        self.normal_fill(mean, std, t.as_mut_slice());
        t
    }

    /// Tensor of i.i.d. uniform samples in `[lo, hi)`.
    pub fn uniform_tensor(&mut self, shape: &[usize], lo: f32, hi: f32) -> Tensor {
        Tensor::from_fn(shape, |_| self.uniform(lo, hi))
    }

    /// Kaiming/He-style fan-in scaled init used for conv/linear weights.
    pub fn kaiming_tensor(&mut self, shape: &[usize], fan_in: usize) -> Tensor {
        let std = (2.0 / fan_in.max(1) as f32).sqrt();
        self.normal_tensor(shape, 0.0, std)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }

    /// Serializes the complete generator state (xoshiro words, root seed,
    /// Box–Muller cache) into a fixed-size little-endian byte string, so a
    /// training checkpoint can freeze a stream mid-sequence and
    /// [`from_state_bytes`](Self::from_state_bytes) can resume it
    /// bit-exactly.
    pub fn state_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::STATE_BYTES);
        for w in self.state {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&self.seed.to_le_bytes());
        match self.cached_normal {
            Some(z) => {
                out.push(1);
                out.extend_from_slice(&z.to_le_bytes());
            }
            None => {
                out.push(0);
                out.extend_from_slice(&0f32.to_le_bytes());
            }
        }
        out
    }

    /// Length of a [`state_bytes`](Self::state_bytes) serialization.
    pub const STATE_BYTES: usize = 4 * 8 + 8 + 1 + 4;

    /// Reconstructs a generator frozen by [`state_bytes`](Self::state_bytes).
    ///
    /// Returns `None` if `bytes` has the wrong length or a corrupt
    /// cache flag.
    pub fn from_state_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != Self::STATE_BYTES {
            return None;
        }
        let word = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
            u64::from_le_bytes(b)
        };
        let state = [word(0), word(1), word(2), word(3)];
        let seed = word(4);
        let cached_normal = match bytes[40] {
            0 => None,
            1 => {
                let mut b = [0u8; 4];
                b.copy_from_slice(&bytes[41..45]);
                Some(f32::from_le_bytes(b))
            }
            _ => return None,
        };
        Some(Self {
            state,
            seed,
            cached_normal,
        })
    }
}

/// One xoshiro256++ step of the state `(s0, s1, s2, s3)`: returns the
/// output and advances the state.
#[inline(always)]
fn xoshiro(s0: &mut u64, s1: &mut u64, s2: &mut u64, s3: &mut u64) -> u64 {
    let result = s0.wrapping_add(*s3).rotate_left(23).wrapping_add(*s0);
    let t = *s1 << 17;
    *s2 ^= *s0;
    *s3 ^= *s1;
    *s1 ^= *s2;
    *s0 ^= *s3;
    *s2 ^= t;
    *s3 = s3.rotate_left(45);
    result
}

/// The top 24 bits of a raw output as a uniform in `[0, 1)`. They fit an
/// `i32`, and both conversions are exact, so this is bitwise the `u64`
/// conversion; the `i32` one is a single vector instruction.
#[inline(always)]
fn unit_f32(x: u64) -> f32 {
    ((x >> 40) as i32) as f32 * (1.0 / (1u32 << 24) as f32)
}

/// The Box–Muller transform of one uniform pair: `(r, cos θ, r·sin θ)`
/// with `r = √(−2 ln u1)` and `θ = 2π·u2` (DESIGN §19).
#[inline(always)]
fn box_muller(u1: f32, u2: f32) -> (f32, f32, f32) {
    let r = (-2.0 * logf(u1)).sqrt();
    let (sin, cos) = sincosf(2.0 * std::f32::consts::PI * u2);
    (r, cos, r * sin)
}

/// Fresh Box–Muller pairs for the slice samplers, [`BLOCK`] at a time:
/// a block's uniforms are drawn in stream order, then transformed lane
/// by lane, a loop the compiler vectorizes. It draws no more pairs than
/// it was sized for, so the stream advances exactly as the same values'
/// [`Rng::normal`] calls advance it.
struct PairBlocks {
    r: [f32; BLOCK],
    cos: [f32; BLOCK],
    spare: [f32; BLOCK],
    next: usize,
    filled: usize,
    left: usize,
}

impl PairBlocks {
    fn new(pairs: usize) -> Self {
        Self {
            r: [0.0; BLOCK],
            cos: [0.0; BLOCK],
            spare: [0.0; BLOCK],
            next: 0,
            filled: 0,
            left: pairs,
        }
    }

    /// The next pair as `(r, cos θ, r·sin θ)`.
    #[inline(always)]
    fn next(&mut self, rng: &mut Rng) -> (f32, f32, f32) {
        if self.next == self.filled {
            self.refill(rng);
        }
        let j = self.next;
        self.next += 1;
        (self.r[j], self.cos[j], self.spare[j])
    }

    /// Draws the next block; out of line, so `next` stays small enough
    /// to inline into the samplers' loops.
    #[inline(never)]
    fn refill(&mut self, rng: &mut Rng) {
        debug_assert!(self.left > 0, "drew past the sized pairs");
        let n = self.left.min(BLOCK);
        self.left -= n;
        let mut u1 = [0.0f32; BLOCK];
        let mut u2 = [0.0f32; BLOCK];
        for (a, b) in u1[..n].iter_mut().zip(&mut u2[..n]) {
            (*a, *b) = rng.box_muller_uniforms();
        }
        let lanes = self.r[..n]
            .iter_mut()
            .zip(&mut self.cos[..n])
            .zip(&mut self.spare[..n]);
        for (((r, cos), spare), (&a, &b)) in lanes.zip(u1.iter().zip(&u2)) {
            (*r, *cos, *spare) = box_muller(a, b);
        }
        self.next = 0;
        self.filled = n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = Rng::from_seed(7);
        let mut b = Rng::from_seed(7);
        for _ in 0..100 {
            assert_eq!(a.normal(0.0, 1.0), b.normal(0.0, 1.0));
            assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
        }
    }

    #[test]
    fn streams_are_independent_and_reproducible() {
        let root = Rng::from_seed(99);
        let mut n1 = root.stream(RngStream::Noise);
        let mut n2 = root.stream(RngStream::Noise);
        let mut d = root.stream(RngStream::Data);
        let x1 = n1.normal(0.0, 1.0);
        assert_eq!(x1, n2.normal(0.0, 1.0));
        assert_ne!(x1, d.normal(0.0, 1.0));
    }

    #[test]
    fn substreams_are_pure_and_key_sensitive() {
        let mut root = Rng::from_seed(123);
        let a1 = root.substream(&[1, 2, 3]).normal(0.0, 1.0);
        // consuming state from the root must not perturb derivations
        root.normal(0.0, 1.0);
        let a2 = root.substream(&[1, 2, 3]).normal(0.0, 1.0);
        assert_eq!(a1, a2);
        // every key position matters
        for keys in [
            &[9, 2, 3][..],
            &[1, 9, 3][..],
            &[1, 2, 9][..],
            &[2, 1, 3][..],
            &[1, 2][..],
            &[0, 1, 2, 3][..],
        ] {
            assert_ne!(a1, root.substream(keys).normal(0.0, 1.0), "keys {keys:?}");
        }
        // chained derivation is distinct from the flat key list
        let chained = root.substream(&[1]).substream(&[2, 3]).normal(0.0, 1.0);
        assert_ne!(a1, chained);
    }

    #[test]
    fn nonce_advances_the_stream() {
        let mut a = Rng::from_seed(5);
        let mut b = Rng::from_seed(5);
        assert_eq!(a.next_nonce(), b.next_nonce());
        assert_ne!(a.next_nonce(), Rng::from_seed(5).next_nonce());
    }

    #[test]
    fn normal_moments_are_sane() {
        let mut rng = Rng::from_seed(3);
        let t = rng.normal_tensor(&[50_000], 2.0, 3.0);
        assert!((t.mean() - 2.0).abs() < 0.05, "mean was {}", t.mean());
        assert!((t.std() - 3.0).abs() < 0.05, "std was {}", t.std());
    }

    /// Lengths around the block edges: a block holds 32 pairs, 64 values.
    const LENS: [usize; 11] = [0, 1, 2, 31, 32, 33, 63, 64, 65, 129, 300];

    /// Two copies of one stream, with a hot Box–Muller cache if `warm`.
    fn twin_streams(seed: u64, warm: bool) -> (Rng, Rng) {
        let mut a = Rng::from_seed(seed).stream(RngStream::Noise);
        if warm {
            // an odd draw leaves the spare cached
            a.normal(0.0, 1.0);
        }
        (a.clone(), a)
    }

    /// The spare each left behind, then the raw stream, agree.
    fn assert_aligned(seq: &mut Rng, blk: &mut Rng, what: &str) {
        assert_eq!(
            seq.cached_normal.map(f32::to_bits),
            blk.cached_normal.map(f32::to_bits),
            "{what}: spare"
        );
        assert_eq!(
            seq.normal(0.0, 1.0).to_bits(),
            blk.normal(0.0, 1.0).to_bits(),
            "{what}: next normal"
        );
        assert_eq!(seq.next_u64(), blk.next_u64(), "{what}: next raw draw");
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn normal_fill_matches_sequential_normals_bitwise() {
        for len in LENS {
            for warm in [false, true] {
                let (mut seq, mut fill) = twin_streams(77, warm);
                let expect: Vec<f32> = (0..len).map(|_| seq.normal(0.25, 1.75)).collect();
                let mut got = vec![0.0f32; len];
                fill.normal_fill(0.25, 1.75, &mut got);
                let what = format!("len {len} warm {warm}");
                assert_eq!(bits(&expect), bits(&got), "{what}");
                assert_aligned(&mut seq, &mut fill, &what);
            }
        }
    }

    #[test]
    fn normal_accum_matches_sequential_adds_bitwise() {
        for len in LENS {
            for warm in [false, true] {
                let (mut seq, mut acc) = twin_streams(31, warm);
                let base: Vec<f32> = (0..len).map(|i| i as f32 - 2.0).collect();
                let mut expect = base.clone();
                for o in expect.iter_mut() {
                    *o += seq.normal(0.0, 0.6);
                }
                let mut got = base;
                acc.normal_accum(0.6, &mut got);
                let what = format!("len {len} warm {warm}");
                assert_eq!(bits(&expect), bits(&got), "{what}");
                assert_aligned(&mut seq, &mut acc, &what);
            }
        }
    }

    #[test]
    fn normal_accum_gated_matches_gated_sequential_draws() {
        // variance patterns, cycled to each length: all drawn, none drawn,
        // and gates mixing zero, negative and NaN variances
        let patterns: [&[f32]; 4] = [
            &[0.5, 2.0, 1.0],
            &[0.0, -1.0],
            &[0.5, 0.0, 2.0, -1.0, 0.25, 3.0, 0.0, 1.0, 4.0],
            &[1.0, f32::NAN, 0.0, 2.0, -0.5, f32::NAN, 0.75],
        ];
        let factor = 0.3f32;
        for (p, pattern) in patterns.iter().enumerate() {
            for len in LENS {
                for warm in [false, true] {
                    let vars: Vec<f32> = pattern.iter().copied().cycle().take(len).collect();
                    let (mut seq, mut acc) = twin_streams(63, warm);
                    let mut expect = vec![1.0f32; len];
                    for (o, &v) in expect.iter_mut().zip(&vars) {
                        // a NaN variance passes the gate and draws
                        if v > 0.0 || v.is_nan() {
                            *o += seq.normal(0.0, factor * v.sqrt());
                        }
                    }
                    let mut got = vec![1.0f32; len];
                    acc.normal_accum_gated(factor, &vars, &mut got);
                    let what = format!("pattern {p} len {len} warm {warm}");
                    assert_eq!(bits(&expect), bits(&got), "{what}");
                    assert_aligned(&mut seq, &mut acc, &what);
                }
            }
        }
    }

    /// `pair_lanes::<L>` over `n` streams and `pairs` pairs against each
    /// stream's own sequential pairs, then each stream's next normal.
    fn check_pair_lanes<const L: usize>(n: usize, pairs: usize, drawn: usize) {
        let streams: Vec<Rng> = (0..n)
            .map(|l| {
                let mut rng = Rng::from_seed(9).substream(&[l as u64, 3]);
                // part-way: an odd count leaves a spare cached
                for _ in 0..drawn {
                    rng.normal(0.0, 1.0);
                }
                rng
            })
            .collect();
        let mut seq = streams.clone();
        let mut lanes = streams;
        let (mut r, mut cos, mut spare) = (
            vec![0.0f32; pairs * L],
            vec![0.0f32; pairs * L],
            vec![0.0f32; pairs * L],
        );
        Rng::pair_lanes::<L>(&mut lanes, &mut r, &mut cos, &mut spare);
        for (l, rng) in seq.iter_mut().enumerate() {
            for i in 0..pairs {
                let (u1, u2) = rng.box_muller_uniforms();
                let (er, ec, es) = box_muller(u1, u2);
                let k = i * L + l;
                assert_eq!(
                    [r[k], cos[k], spare[k]].map(f32::to_bits),
                    [er, ec, es].map(f32::to_bits),
                    "L {L} streams {n} drawn {drawn}: lane {l} pair {i}"
                );
            }
        }
        for (l, (s, b)) in seq.iter_mut().zip(&mut lanes).enumerate() {
            let what = format!("L {L} streams {n} pairs {pairs} drawn {drawn} lane {l}");
            assert_aligned(s, b, &what);
        }
    }

    #[test]
    fn pair_lanes_match_sequential_pairs_bitwise() {
        for drawn in [0, 1, 6] {
            for pairs in 0..=70 {
                for n in 1..=16 {
                    check_pair_lanes::<16>(n, pairs, drawn);
                    if n <= 8 {
                        check_pair_lanes::<8>(n, pairs, drawn);
                    }
                }
            }
        }
    }

    /// `Φ(x)` from Abramowitz & Stegun 7.1.26 (|error| ≤ 1.5e-7).
    fn phi(x: f64) -> f64 {
        let t = 1.0 / (1.0 + 0.327_591_1 * x.abs() / std::f64::consts::SQRT_2);
        let poly = t
            * (0.254_829_592
                + t * (-0.284_496_736
                    + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
        let erf = 1.0 - poly * (-x * x / 2.0).exp();
        0.5 * (1.0 + x.signum() * erf)
    }

    /// 2²⁰ draws in the read path's shape, one keyed substream and 128
    /// columns at a time, against N(0, 1). Each bound is five standard
    /// errors, or the Kolmogorov distribution's 0.1 % point for the KS
    /// distance.
    #[test]
    fn normal_accum_draws_are_standard_normal() {
        const N: usize = 1 << 20;
        let base = Rng::from_seed(2022).stream(RngStream::Noise);
        let mut z = vec![0.0f32; N];
        for (i, cols) in z.chunks_mut(128).enumerate() {
            base.substream(&[i as u64]).normal_accum(1.0, cols);
        }
        let n = N as f64;
        let mean = z.iter().map(|&v| f64::from(v)).sum::<f64>() / n;
        let var = z
            .iter()
            .map(|&v| (f64::from(v) - mean).powi(2))
            .sum::<f64>()
            / (n - 1.0);
        assert!(mean.abs() < 5.0 / n.sqrt(), "mean {mean}");
        assert!((var - 1.0).abs() < 5.0 * (2.0 / n).sqrt(), "variance {var}");

        let mut sorted: Vec<f64> = z.iter().map(|&v| f64::from(v)).collect();
        sorted.sort_by(f64::total_cmp);
        let ks = sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let cdf = phi(x);
                (cdf - i as f64 / n).max((i + 1) as f64 / n - cdf)
            })
            .fold(0.0, f64::max);
        assert!(ks < 1.95 / n.sqrt(), "KS distance {ks}");

        // P(|Z| > 4) = 6.334e-5: about 66 of the draws, Poisson spread
        let expect = 6.334e-5 * n;
        let tail = z.iter().filter(|v| v.abs() > 4.0).count() as f64;
        assert!(
            (tail - expect).abs() < 5.0 * expect.sqrt(),
            "{tail} draws beyond 4σ, expected {expect:.1}"
        );
    }

    #[test]
    fn uniform_range_respected() {
        let mut rng = Rng::from_seed(5);
        for _ in 0..1000 {
            let v = rng.uniform(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&v));
            let i = rng.below(10);
            assert!(i < 10);
        }
    }

    #[test]
    fn coin_probability_rough() {
        let mut rng = Rng::from_seed(11);
        let heads = (0..10_000).filter(|_| rng.coin(0.25)).count();
        assert!((2000..3000).contains(&heads), "heads = {heads}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Rng::from_seed(1);
        let mut v: Vec<usize> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>()); // astronomically unlikely
    }

    #[test]
    fn state_roundtrip_resumes_mid_sequence() {
        let mut rng = Rng::from_seed(21).stream(RngStream::Noise);
        // advance an odd number of normals so the Box–Muller cache is hot
        for _ in 0..7 {
            rng.normal(0.0, 1.0);
        }
        let frozen = rng.state_bytes();
        assert_eq!(frozen.len(), Rng::STATE_BYTES);
        let mut resumed = Rng::from_state_bytes(&frozen).unwrap();
        for _ in 0..64 {
            assert_eq!(rng.normal(0.0, 1.0), resumed.normal(0.0, 1.0));
            assert_eq!(rng.next_u64(), resumed.next_u64());
        }
        assert_eq!(rng.seed(), resumed.seed());
    }

    #[test]
    fn state_bytes_rejects_garbage() {
        assert!(Rng::from_state_bytes(&[]).is_none());
        assert!(Rng::from_state_bytes(&[0u8; 13]).is_none());
        let mut bad = Rng::from_seed(0).state_bytes();
        bad[40] = 7; // invalid cache flag
        assert!(Rng::from_state_bytes(&bad).is_none());
    }

    #[test]
    fn kaiming_scale_tracks_fan_in() {
        let mut rng = Rng::from_seed(13);
        let t = rng.kaiming_tensor(&[10_000], 50);
        let expect = (2.0f32 / 50.0).sqrt();
        assert!((t.std() - expect).abs() < 0.01);
    }
}
