//! Deterministic random number generation.
//!
//! Every experiment in the workspace takes a single `u64` seed; purposes
//! (weight init, data generation, crossbar noise, device variation) each get
//! an independent substream derived with [`Rng::stream`], so adding noise
//! samples in one place never perturbs the data another component sees.

use crate::Tensor;

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
        let s = &mut self.state;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform sample in `[0, 1)` with 24 bits of precision.
    fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
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

    /// One fresh Box–Muller pair: the first sample already scaled to
    /// `(mean, std)`, the second as the raw unit spare `r·sinθ` (scaled at
    /// use time, exactly like [`normal`](Self::normal)'s cache).
    #[inline]
    fn normal_fresh_pair(&mut self, mean: f32, std: f32) -> (f32, f32) {
        // Draw u1 in (0, 1] to avoid ln(0).
        let u1: f32 = 1.0 - self.next_f32();
        let u2: f32 = self.next_f32();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        (mean + std * r * theta.cos(), r * theta.sin())
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
    /// spare through the per-call cache.
    ///
    /// Draw-for-draw bit-compatible with `out.len()` sequential
    /// [`normal`](Self::normal) calls: any pre-existing cached spare is
    /// consumed first and a trailing odd sample leaves its spare cached,
    /// so mixing `normal_fill` with `normal` never shifts the stream.
    pub fn normal_fill(&mut self, mean: f32, std: f32, out: &mut [f32]) {
        let mut iter = out.iter_mut();
        if self.cached_normal.is_some() {
            match iter.next() {
                Some(o) => *o = self.normal(mean, std),
                None => return,
            }
        }
        while let Some(a) = iter.next() {
            let (value, spare) = self.normal_fresh_pair(mean, std);
            *a = value;
            match iter.next() {
                Some(b) => *b = mean + std * spare,
                None => self.cached_normal = Some(spare),
            }
        }
    }

    /// Adds i.i.d. `N(0, std)` noise to every element of `out` — the
    /// accumulate form of [`normal_fill`](Self::normal_fill), with the
    /// same bit-compatibility guarantee.
    pub fn normal_accum(&mut self, std: f32, out: &mut [f32]) {
        let mut iter = out.iter_mut();
        if self.cached_normal.is_some() {
            match iter.next() {
                Some(o) => *o += self.normal(0.0, std),
                None => return,
            }
        }
        while let Some(a) = iter.next() {
            let (value, spare) = self.normal_fresh_pair(0.0, std);
            *a += value;
            match iter.next() {
                Some(b) => *b += 0.0 + std * spare,
                None => self.cached_normal = Some(spare),
            }
        }
    }

    /// Adds `N(0, factor·√vars[j])` noise to `out[j]` for every element
    /// with `vars[j] > 0`, skipping (and drawing nothing for) the rest —
    /// the per-column aggregated-variance pattern of the crossbar
    /// cycle-to-cycle read noise.
    ///
    /// Bit-compatible with the equivalent gated sequence of
    /// [`normal`](Self::normal) calls; the Box–Muller spare is kept in a
    /// local between gated draws and written back to the cache at the
    /// end.
    pub fn normal_accum_gated(&mut self, factor: f32, vars: &[f32], out: &mut [f32]) {
        let mut spare = self.cached_normal.take();
        for (o, &v) in out.iter_mut().zip(vars) {
            if v <= 0.0 {
                continue;
            }
            let std = factor * v.sqrt();
            match spare.take() {
                Some(z) => *o += 0.0 + std * z,
                None => {
                    let (value, z) = self.normal_fresh_pair(0.0, std);
                    *o += value;
                    spare = Some(z);
                }
            }
        }
        self.cached_normal = spare;
    }

    /// Tensor of i.i.d. Gaussian samples.
    pub fn normal_tensor(&mut self, shape: &[usize], mean: f32, std: f32) -> Tensor {
        Tensor::from_fn(shape, |_| self.normal(mean, std))
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

    #[test]
    fn normal_fill_matches_sequential_normals_bitwise() {
        for len in [0usize, 1, 2, 5, 8, 33] {
            for warm in [false, true] {
                let mut seq = Rng::from_seed(77).stream(RngStream::Noise);
                let mut fill = Rng::from_seed(77).stream(RngStream::Noise);
                if warm {
                    // odd draw leaves a hot Box–Muller cache in both
                    seq.normal(0.0, 1.0);
                    fill.normal(0.0, 1.0);
                }
                let expect: Vec<f32> = (0..len).map(|_| seq.normal(0.25, 1.75)).collect();
                let mut got = vec![0.0f32; len];
                fill.normal_fill(0.25, 1.75, &mut got);
                assert_eq!(expect, got, "len {len} warm {warm}");
                // streams stay aligned afterwards
                assert_eq!(seq.normal(0.0, 1.0), fill.normal(0.0, 1.0));
            }
        }
    }

    #[test]
    fn normal_accum_matches_sequential_adds_bitwise() {
        for len in [1usize, 4, 7] {
            let mut seq = Rng::from_seed(31);
            let mut acc = Rng::from_seed(31);
            let base: Vec<f32> = (0..len).map(|i| i as f32 - 2.0).collect();
            let mut expect = base.clone();
            for o in expect.iter_mut() {
                *o += seq.normal(0.0, 0.6);
            }
            let mut got = base;
            acc.normal_accum(0.6, &mut got);
            assert_eq!(expect, got, "len {len}");
            assert_eq!(seq.normal(0.0, 1.0), acc.normal(0.0, 1.0));
        }
    }

    #[test]
    fn normal_accum_gated_matches_gated_sequential_draws() {
        let vars = [0.5f32, 0.0, 2.0, -1.0, 0.25, 3.0, 0.0, 1.0, 4.0];
        let mut seq = Rng::from_seed(63);
        let mut acc = Rng::from_seed(63);
        // warm the cache so the gated path must consume it first
        seq.normal(0.0, 1.0);
        acc.normal(0.0, 1.0);
        let factor = 0.3f32;
        let mut expect = vec![1.0f32; vars.len()];
        for (o, &v) in expect.iter_mut().zip(&vars) {
            if v > 0.0 {
                *o += seq.normal(0.0, factor * v.sqrt());
            }
        }
        let mut got = vec![1.0f32; vars.len()];
        acc.normal_accum_gated(factor, &vars, &mut got);
        assert_eq!(expect, got);
        // the trailing spare must land back in the cache identically
        assert_eq!(seq.normal(0.0, 1.0), acc.normal(0.0, 1.0));
        assert_eq!(seq.next_u64(), acc.next_u64());
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
