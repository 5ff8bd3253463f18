//! Pulse trains: the temporal sequence of binary input vectors a crossbar
//! consumes.

use std::borrow::Cow;
use std::ops::Range;

use membit_tensor::{Tensor, TensorError};

use crate::schemes::unary_pulse;
use crate::Result;

/// The most pulses a count-coded ([`TrainKind::NestedUnary`]) train can
/// hold: each element stores its high count in a `u16`. The thermometer
/// and PLA encoders refuse longer codes when they are built.
pub const MAX_NESTED_PULSES: usize = u16::MAX as usize;

/// Structural class of a [`PulseTrain`], used by execution engines to
/// pick specialized evaluation paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainKind {
    /// No structure guaranteed beyond the [`PulseTrain`] invariants.
    Generic,
    /// Unit-weight train whose pulses are *nested*: per element, every
    /// pulse entry is ±1 and the sequence is monotonically non-increasing
    /// (`+1…+1, −1…−1`), so each element switches `+1 → −1` at most once.
    /// Thermometer/unary codes have exactly this shape (paper Eq. 3), so
    /// such a train is stored as one high count per element, and an
    /// engine can evaluate pulse `t+1` as a sparse delta on pulse `t`.
    NestedUnary,
}

/// A sequence of same-shaped ±1 pulse tensors plus their accumulation
/// weights.
///
/// For thermometer coding all weights are 1; for bit slicing they are
/// `2^i`. The decoded value is `Σ w_i·x_i / Σ w_i`, and a crossbar
/// executes one analog MVM per pulse. A [nested-unary](TrainKind::NestedUnary)
/// train is stored as one `u16` high count per element instead of `p`
/// f32 pulses; [`pulse`](Self::pulse) expands it on demand.
#[derive(Debug, Clone, PartialEq)]
pub struct PulseTrain {
    storage: Storage,
}

/// How a [`PulseTrain`] holds its pulses; the variant is its
/// [`TrainKind`].
#[derive(Debug, Clone, PartialEq)]
enum Storage {
    /// One tensor per pulse, plus the weights.
    Generic {
        pulses: Vec<Tensor>,
        weights: Vec<f32>,
    },
    /// Unit weights; per element, the number of leading `+1` pulses. A
    /// count is the whole code: pulse `i` is `+1` exactly where
    /// `i < count`.
    NestedUnary {
        counts: Vec<u16>,
        shape: Vec<usize>,
        pulses: usize,
    },
}

impl PulseTrain {
    /// Bundles pulses with their weights.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for an empty train, a
    /// weight-count mismatch, a non-finite weight, or weights whose sum
    /// (the decode normalizer) is zero or not finite, and
    /// [`TensorError::ShapeMismatch`] for inconsistent pulse shapes.
    pub fn new(pulses: Vec<Tensor>, weights: Vec<f32>) -> Result<Self> {
        if pulses.is_empty() {
            return Err(TensorError::InvalidArgument(
                "pulse train cannot be empty".into(),
            ));
        }
        if pulses.len() != weights.len() {
            return Err(TensorError::InvalidArgument(format!(
                "{} pulses but {} weights",
                pulses.len(),
                weights.len()
            )));
        }
        if let Some((i, w)) = weights.iter().enumerate().find(|(_, w)| !w.is_finite()) {
            return Err(TensorError::InvalidArgument(format!(
                "pulse {i} has non-finite weight {w}"
            )));
        }
        let norm: f32 = weights.iter().sum();
        if norm == 0.0 || !norm.is_finite() {
            return Err(TensorError::InvalidArgument(format!(
                "pulse weights sum to {norm}: the decode normalizer must be finite and nonzero"
            )));
        }
        let shape = pulses[0].shape().to_vec();
        if let Some(bad) = pulses.iter().find(|p| p.shape() != shape) {
            return Err(TensorError::ShapeMismatch {
                op: "pulse train",
                lhs: shape,
                rhs: bad.shape().to_vec(),
            });
        }
        Ok(Self {
            storage: Storage::Generic { pulses, weights },
        })
    }

    /// A [`TrainKind::NestedUnary`] train of `pulses` unit-weight pulses
    /// over a tensor of `shape`, stored as each element's high count
    /// (`counts`, row-major): pulse `i` is `+1` where `i < count` and
    /// `−1` elsewhere. Every count in `0..=pulses` is a valid code, so
    /// the nesting invariant holds by construction. Thermometer-family
    /// encoders produce their trains here.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] when `pulses` is outside
    /// `1..=`[`MAX_NESTED_PULSES`], when `counts` does not hold one entry
    /// per element of `shape`, or naming the first element whose count
    /// exceeds `pulses`.
    pub fn nested_unary(counts: Vec<u16>, shape: &[usize], pulses: usize) -> Result<Self> {
        if !(1..=MAX_NESTED_PULSES).contains(&pulses) {
            return Err(TensorError::InvalidArgument(format!(
                "nested unary train needs 1..={MAX_NESTED_PULSES} pulses, got {pulses}"
            )));
        }
        let max = pulses as u16;
        let volume: usize = shape.iter().product();
        if counts.len() != volume {
            return Err(TensorError::InvalidArgument(format!(
                "nested unary train of shape {shape:?} needs {volume} counts, got {}",
                counts.len()
            )));
        }
        // a branch-free fold that vectorizes; the element loop that
        // names the culprit runs only once the fold has failed
        if !counts.iter().fold(true, |ok, &c| ok & (c <= max)) {
            let (flat, c) = counts
                .iter()
                .enumerate()
                .find(|(_, &c)| c > max)
                .expect("the fold found a count over the pulse count");
            return Err(TensorError::InvalidArgument(format!(
                "nested unary train has high count {c} over {pulses} pulses at element {flat}"
            )));
        }
        Ok(Self {
            storage: Storage::NestedUnary {
                counts,
                shape: shape.to_vec(),
                pulses,
            },
        })
    }

    /// The structural class of this train.
    pub fn kind(&self) -> TrainKind {
        match self.storage {
            Storage::Generic { .. } => TrainKind::Generic,
            Storage::NestedUnary { .. } => TrainKind::NestedUnary,
        }
    }

    /// Number of pulses (crossbar time steps).
    pub fn num_pulses(&self) -> usize {
        match &self.storage {
            Storage::Generic { pulses, .. } => pulses.len(),
            Storage::NestedUnary { pulses, .. } => *pulses,
        }
    }

    /// Shape of each pulse tensor.
    pub fn shape(&self) -> &[usize] {
        match &self.storage {
            Storage::Generic { pulses, .. } => pulses[0].shape(),
            Storage::NestedUnary { shape, .. } => shape,
        }
    }

    /// Pulse `i` (in temporal order): borrowed from a generic train,
    /// expanded from the high counts of a nested-unary one.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_pulses()`.
    pub fn pulse(&self, i: usize) -> Cow<'_, Tensor> {
        match &self.storage {
            Storage::Generic { pulses, .. } => Cow::Borrowed(&pulses[i]),
            Storage::NestedUnary { counts, shape, .. } => {
                let mut data = Vec::with_capacity(counts.len());
                self.pulse_span(i, 0..counts.len(), &mut data);
                Cow::Owned(Tensor::from_vec(data, shape).expect("counts match the shape"))
            }
        }
    }

    /// Elements `span` (flat, row-major) of pulse `i`: borrowed from a
    /// generic train, expanded into `buf` from the counts of a
    /// nested-unary one. An engine walking a count-coded train pulse by
    /// pulse over only the rows it needs reuses one buffer and never
    /// builds a whole pulse.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_pulses()` or `span` is out of range.
    pub fn pulse_span<'a>(
        &'a self,
        i: usize,
        span: Range<usize>,
        buf: &'a mut Vec<f32>,
    ) -> &'a [f32] {
        match &self.storage {
            Storage::Generic { pulses, .. } => &pulses[i].as_slice()[span],
            Storage::NestedUnary { counts, pulses, .. } => {
                assert!(i < *pulses, "pulse {i} of a {pulses}-pulse train");
                buf.clear();
                buf.extend(counts[span].iter().map(|&c| unary_pulse(c.into(), i)));
                buf
            }
        }
    }

    /// The per-element high counts of a [nested-unary](TrainKind::NestedUnary)
    /// train (row-major over [`shape`](Self::shape)); `None` for a
    /// generic train.
    pub fn counts(&self) -> Option<&[u16]> {
        match &self.storage {
            Storage::Generic { .. } => None,
            Storage::NestedUnary { counts, .. } => Some(counts),
        }
    }

    /// The accumulation weights (all 1 for a nested-unary train).
    pub fn weights(&self) -> Cow<'_, [f32]> {
        match &self.storage {
            Storage::Generic { weights, .. } => Cow::Borrowed(weights),
            Storage::NestedUnary { pulses, .. } => Cow::Owned(vec![1.0; *pulses]),
        }
    }

    /// Sum of the accumulation weights (the decode normalizer).
    pub fn weight_norm(&self) -> f32 {
        self.weights().iter().sum()
    }

    /// Decodes the train back to values: `Σ w_i·x_i / Σ w_i`.
    ///
    /// A nested-unary element with count `c` over `p` pulses decodes to
    /// `(2c − p)·(1/p)`: its pulse sum is the exact integer `2c − p`, so
    /// this is bitwise the pulse-by-pulse accumulation.
    ///
    /// # Errors
    ///
    /// Propagates shape errors (impossible for a validated train).
    pub fn decode(&self) -> Result<Tensor> {
        match &self.storage {
            Storage::Generic { pulses, weights } => {
                let mut acc = Tensor::zeros(self.shape());
                for (&w, p) in weights.iter().zip(pulses) {
                    acc.axpy(w, p)?;
                }
                Ok(acc.mul_scalar(1.0 / self.weight_norm()))
            }
            Storage::NestedUnary {
                counts,
                shape,
                pulses,
            } => {
                let (p, inv) = (*pulses as i32, 1.0 / *pulses as f32);
                let data = counts
                    .iter()
                    .map(|&c| (2 * i32::from(c) - p) as f32 * inv)
                    .collect();
                Tensor::from_vec(data, shape)
            }
        }
    }

    /// Total pulse-weighted latency proxy: the number of pulses (all
    /// pulses take one time step regardless of weight).
    pub fn latency(&self) -> usize {
        self.num_pulses()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), &[v.len()]).unwrap()
    }

    fn error(train: Result<PulseTrain>) -> String {
        train.unwrap_err().to_string()
    }

    fn weighted(weights: &[f32]) -> Result<PulseTrain> {
        let pulses = weights.iter().map(|_| t(&[1.0, -1.0])).collect();
        PulseTrain::new(pulses, weights.to_vec())
    }

    #[test]
    fn validates_construction() {
        assert!(PulseTrain::new(vec![], vec![]).is_err());
        assert!(PulseTrain::new(vec![t(&[1.0])], vec![1.0, 2.0]).is_err());
        assert!(PulseTrain::new(vec![t(&[1.0]), t(&[1.0, 1.0])], vec![1.0, 1.0]).is_err());
    }

    #[test]
    fn new_rejects_all_zero_weights() {
        assert_eq!(
            error(weighted(&[0.0, 0.0])),
            "invalid argument: pulse weights sum to 0: \
             the decode normalizer must be finite and nonzero"
        );
    }

    #[test]
    fn new_rejects_weights_summing_to_zero() {
        assert_eq!(
            error(weighted(&[1.0, -1.0])),
            "invalid argument: pulse weights sum to 0: \
             the decode normalizer must be finite and nonzero"
        );
        // the sum, not each weight, is what decode divides by
        assert!(weighted(&[1.0, -0.5]).is_ok());
    }

    #[test]
    fn new_rejects_nan_weight() {
        assert_eq!(
            error(weighted(&[f32::NAN, 1.0])),
            "invalid argument: pulse 0 has non-finite weight NaN"
        );
    }

    #[test]
    fn new_rejects_infinite_weight() {
        assert_eq!(
            error(weighted(&[f32::INFINITY, 1.0])),
            "invalid argument: pulse 0 has non-finite weight inf"
        );
        // finite weights whose sum overflows are rejected too
        assert_eq!(
            error(weighted(&[f32::MAX, f32::MAX])),
            "invalid argument: pulse weights sum to inf: \
             the decode normalizer must be finite and nonzero"
        );
    }

    #[test]
    fn decode_weighted_average() {
        let train = PulseTrain::new(
            vec![t(&[1.0, -1.0]), t(&[1.0, 1.0]), t(&[-1.0, 1.0])],
            vec![1.0, 2.0, 4.0],
        )
        .unwrap();
        let d = train.decode().unwrap();
        // (1+2−4)/7, (−1+2+4)/7
        assert!(d.allclose(&t(&[-1.0 / 7.0, 5.0 / 7.0]), 1e-6));
        assert_eq!(train.latency(), 3);
        assert_eq!(train.weight_norm(), 7.0);
    }

    #[test]
    fn nested_unary_tags_and_validates() {
        // counts [2, 1, 0] over 3 pulses: +1 +1 −1 / +1 −1 −1 / −1 −1 −1
        let train = PulseTrain::nested_unary(vec![2, 1, 0], &[3], 3).unwrap();
        assert_eq!(train.kind(), TrainKind::NestedUnary);
        assert_eq!(train.counts(), Some(&[2u16, 1, 0][..]));
        assert_eq!(train.num_pulses(), 3);
        assert_eq!(train.shape(), &[3]);
        assert_eq!(&*train.weights(), &[1.0, 1.0, 1.0]);
        assert_eq!(train.weight_norm(), 3.0);
        assert_eq!(train.latency(), 3);
        // the plain constructor never claims structure
        let generic = PulseTrain::new(vec![t(&[1.0]), t(&[-1.0])], vec![1.0, 1.0]).unwrap();
        assert_eq!(generic.kind(), TrainKind::Generic);
        assert_eq!(generic.counts(), None);
    }

    #[test]
    fn nested_unary_rejects_a_count_over_the_pulse_count() {
        assert_eq!(
            error(PulseTrain::nested_unary(vec![2, 4, 3], &[3], 3)),
            "invalid argument: nested unary train has high count 4 over 3 pulses at element 1"
        );
        // a count equal to the pulse count (all +1) is valid
        assert!(PulseTrain::nested_unary(vec![3, 0], &[2], 3).is_ok());
    }

    #[test]
    fn nested_unary_rejects_a_length_mismatch() {
        assert_eq!(
            error(PulseTrain::nested_unary(vec![1, 0, 1], &[2, 2], 2)),
            "invalid argument: nested unary train of shape [2, 2] needs 4 counts, got 3"
        );
    }

    #[test]
    fn nested_unary_rejects_zero_pulses() {
        assert_eq!(
            error(PulseTrain::nested_unary(vec![0], &[1], 0)),
            "invalid argument: nested unary train needs 1..=65535 pulses, got 0"
        );
    }

    #[test]
    fn nested_unary_rejects_more_pulses_than_a_count_holds() {
        assert!(PulseTrain::nested_unary(vec![u16::MAX], &[1], 65_535).is_ok());
        assert_eq!(
            error(PulseTrain::nested_unary(vec![0], &[1], 65_536)),
            "invalid argument: nested unary train needs 1..=65535 pulses, got 65536"
        );
    }

    #[test]
    fn nested_unary_names_the_first_count_over_the_pulse_count() {
        // the fold fails anywhere in a long train; the report names the
        // first offending element, not a later one
        let len = 3 * 1024 + 5;
        let mut counts = vec![7u16; len];
        assert!(PulseTrain::nested_unary(counts.clone(), &[len], 7).is_ok());
        counts[3 * 1024 + 4] = 9;
        counts[1024 + 7] = 8;
        assert_eq!(
            error(PulseTrain::nested_unary(counts, &[len], 7)),
            "invalid argument: nested unary train has high count 8 over 7 pulses at element 1031"
        );
    }

    #[test]
    fn pulse_borrows_generic_and_expands_counts() {
        let generic = PulseTrain::new(vec![t(&[1.0]), t(&[-1.0])], vec![0.5, 1.5]).unwrap();
        assert!(matches!(generic.pulse(1), Cow::Borrowed(p) if p.as_slice() == [-1.0]));
        let train = PulseTrain::nested_unary(vec![2, 0, 1, 3], &[2, 2], 3).unwrap();
        let pulses: Vec<Vec<f32>> = (0..3).map(|i| train.pulse(i).as_slice().to_vec()).collect();
        assert_eq!(
            pulses,
            vec![
                vec![1.0, -1.0, 1.0, 1.0],
                vec![1.0, -1.0, -1.0, 1.0],
                vec![-1.0, -1.0, -1.0, 1.0],
            ]
        );
        assert!(matches!(train.pulse(0), Cow::Owned(p) if p.shape() == [2, 2]));
        // a span of one pulse: expanded into the buffer, or borrowed
        let mut buf = vec![7.0; 9];
        assert_eq!(train.pulse_span(1, 1..3, &mut buf), [-1.0, -1.0]);
        assert_eq!(buf, [-1.0, -1.0]);
        assert_eq!(generic.pulse_span(0, 0..1, &mut buf), [1.0]);
    }

    #[test]
    fn count_decode_is_bitwise_the_dense_decode() {
        // every count over several pulse counts, odd and even: the closed
        // form must land on the bits of the pulse-by-pulse sum
        for p in [1usize, 2, 5, 7, 8, 16, 33] {
            let counts: Vec<u16> = (0..=p as u16).collect();
            let train = PulseTrain::nested_unary(counts, &[p + 1], p).unwrap();
            let dense = PulseTrain::new(
                (0..p).map(|i| train.pulse(i).into_owned()).collect(),
                vec![1.0; p],
            )
            .unwrap();
            let bits = |t: Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(train.decode().unwrap()),
                bits(dense.decode().unwrap()),
                "p = {p}"
            );
        }
    }
}
