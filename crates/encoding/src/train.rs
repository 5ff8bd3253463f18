//! Pulse trains: the temporal sequence of binary input vectors a crossbar
//! consumes.

use membit_tensor::{Tensor, TensorError};

use crate::Result;

/// Structural class of a [`PulseTrain`], used by execution engines to
/// pick specialized evaluation paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainKind {
    /// No structure guaranteed beyond the [`PulseTrain`] invariants.
    Generic,
    /// Unit-weight train whose pulses are *nested*: per element, every
    /// pulse entry is ±1 and the sequence is monotonically non-increasing
    /// (`+1…+1, −1…−1`), so each element switches `+1 → −1` at most once.
    /// Thermometer/unary codes have exactly this shape (paper Eq. 3),
    /// which lets an engine evaluate pulse `t+1` as a sparse delta on
    /// pulse `t`.
    NestedUnary,
}

/// A sequence of same-shaped ±1 pulse tensors plus their accumulation
/// weights.
///
/// For thermometer coding all weights are 1; for bit slicing they are
/// `2^i`. The decoded value is `Σ w_i·x_i / Σ w_i`, and a crossbar
/// executes one analog MVM per pulse.
#[derive(Debug, Clone, PartialEq)]
pub struct PulseTrain {
    pulses: Vec<Tensor>,
    weights: Vec<f32>,
    kind: TrainKind,
}

impl PulseTrain {
    /// Bundles pulses with their weights.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for an empty train, a
    /// weight-count mismatch, or inconsistent pulse shapes.
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
        let shape = pulses[0].shape().to_vec();
        if let Some(bad) = pulses.iter().find(|p| p.shape() != shape) {
            return Err(TensorError::ShapeMismatch {
                op: "pulse train",
                lhs: shape,
                rhs: bad.shape().to_vec(),
            });
        }
        Ok(Self {
            pulses,
            weights,
            kind: TrainKind::Generic,
        })
    }

    /// Bundles unit-weight pulses as a [`TrainKind::NestedUnary`] train,
    /// validating the nesting invariant (every entry ±1, per-element
    /// monotonically non-increasing over pulses). Thermometer-family
    /// encoders produce their trains through this constructor so engines
    /// can trust the tag.
    ///
    /// # Errors
    ///
    /// Returns the [`new`](Self::new) errors, plus
    /// [`TensorError::InvalidArgument`] naming the first offending pulse
    /// and element when the pulses are not nested unary.
    pub fn nested_unary(pulses: Vec<Tensor>) -> Result<Self> {
        let weights = vec![1.0; pulses.len()];
        let mut train = Self::new(pulses, weights)?;
        if !is_nested_unary(&train.pulses) {
            return Err(nesting_violation(&train.pulses));
        }
        train.kind = TrainKind::NestedUnary;
        Ok(train)
    }

    /// The structural class of this train.
    pub fn kind(&self) -> TrainKind {
        self.kind
    }

    /// Number of pulses (crossbar time steps).
    pub fn num_pulses(&self) -> usize {
        self.pulses.len()
    }

    /// Shape of each pulse tensor.
    pub fn shape(&self) -> &[usize] {
        self.pulses[0].shape()
    }

    /// The pulse tensors, in temporal order.
    pub fn pulses(&self) -> &[Tensor] {
        &self.pulses
    }

    /// The accumulation weights.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Sum of the accumulation weights (the decode normalizer).
    pub fn weight_norm(&self) -> f32 {
        self.weights.iter().sum()
    }

    /// Iterates `(weight, pulse)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f32, &Tensor)> {
        self.weights.iter().copied().zip(&self.pulses)
    }

    /// Decodes the train back to values: `Σ w_i·x_i / Σ w_i`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors (impossible for a validated train).
    pub fn decode(&self) -> Result<Tensor> {
        let mut acc = Tensor::zeros(self.shape());
        for (w, p) in self.iter() {
            acc.axpy(w, p)?;
        }
        Ok(acc.mul_scalar(1.0 / self.weight_norm()))
    }

    /// Total pulse-weighted latency proxy: the number of pulses (all
    /// pulses take one time step regardless of weight).
    pub fn latency(&self) -> usize {
        self.pulses.len()
    }
}

/// Elements per block in the block-wise encode and validation passes: a
/// block of classes (8 KiB) and one block of each of two pulses (4 KiB
/// each) fit in L1 together.
pub(crate) const BLOCK: usize = 1024;

/// Pass/fail of the nesting invariant over non-empty, same-shaped
/// pulses, as branch-free and-folds that vectorize: every entry is ±1,
/// and no entry exceeds the same element of the previous pulse. The folds
/// walk the elements a block at a time through all pulses, so each block
/// of the previous pulse is still in cache when the next pulse reads it.
fn is_nested_unary(pulses: &[Tensor]) -> bool {
    let len = pulses[0].len();
    (0..len).step_by(BLOCK).all(|start| {
        let span = start..(start + BLOCK).min(len);
        let first = &pulses[0].as_slice()[span.clone()];
        first.iter().fold(true, |ok, &v| ok & (v.abs() == 1.0))
            && pulses.windows(2).all(|pair| {
                let prev = &pair[0].as_slice()[span.clone()];
                let cur = &pair[1].as_slice()[span.clone()];
                prev.iter()
                    .zip(cur)
                    .fold(true, |ok, (&p, &v)| ok & (v.abs() == 1.0) & (v <= p))
            })
    })
}

/// The first nesting violation in pulse-then-element order, naming the
/// offending pulse and element. Run only once [`is_nested_unary`] has
/// failed, so its element loop costs nothing on valid trains.
fn nesting_violation(pulses: &[Tensor]) -> TensorError {
    for (pi, pulse) in pulses.iter().enumerate() {
        for (flat, &v) in pulse.as_slice().iter().enumerate() {
            if v != 1.0 && v != -1.0 {
                return TensorError::InvalidArgument(format!(
                    "nested unary train has non-binary entry {v} (pulse {pi}, element {flat})"
                ));
            }
            if pi > 0 && v > pulses[pi - 1].as_slice()[flat] {
                return TensorError::InvalidArgument(format!(
                    "nested unary train rises at pulse {pi}, element {flat}"
                ));
            }
        }
    }
    TensorError::InvalidArgument("nested unary train failed validation".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_vec(v.to_vec(), &[v.len()]).unwrap()
    }

    fn nesting_error(pulses: Vec<Tensor>) -> String {
        PulseTrain::nested_unary(pulses).unwrap_err().to_string()
    }

    #[test]
    fn validates_construction() {
        assert!(PulseTrain::new(vec![], vec![]).is_err());
        assert!(PulseTrain::new(vec![t(&[1.0])], vec![1.0, 2.0]).is_err());
        assert!(PulseTrain::new(vec![t(&[1.0]), t(&[1.0, 1.0])], vec![1.0, 1.0]).is_err());
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
        // monotone +1→−1 per element: valid
        let train = PulseTrain::nested_unary(vec![
            t(&[1.0, 1.0]),
            t(&[1.0, -1.0]),
            t(&[-1.0, -1.0]),
        ])
        .unwrap();
        assert_eq!(train.kind(), TrainKind::NestedUnary);
        assert_eq!(train.weights(), &[1.0, 1.0, 1.0]);
        // the plain constructor never claims structure
        let generic = PulseTrain::new(vec![t(&[1.0]), t(&[-1.0])], vec![1.0, 1.0]).unwrap();
        assert_eq!(generic.kind(), TrainKind::Generic);
        // rising sequence rejected, naming the pulse and element
        assert_eq!(
            nesting_error(vec![t(&[1.0, -1.0]), t(&[1.0, 1.0])]),
            "invalid argument: nested unary train rises at pulse 1, element 1"
        );
        // non-binary entries rejected, naming the pulse and element
        assert_eq!(
            nesting_error(vec![t(&[1.0, 1.0]), t(&[1.0, 0.5])]),
            "invalid argument: nested unary train has non-binary entry 0.5 (pulse 1, element 1)"
        );
        assert_eq!(
            nesting_error(vec![t(&[1.0, f32::NAN])]),
            "invalid argument: nested unary train has non-binary entry NaN (pulse 0, element 1)"
        );
        // empty rejected (inherits the base validation)
        assert!(PulseTrain::nested_unary(vec![]).is_err());
    }

    #[test]
    fn nested_unary_reports_the_first_violation_in_pulse_order() {
        // several blocks per pulse: the report is the first violation in
        // pulse-then-element order, wherever the block boundaries fall
        let len = 3 * BLOCK + 5;
        let mut pulses = vec![Tensor::ones(&[len]); 3];
        pulses[2].as_mut_slice()[2 * BLOCK + 1] = -1.0;
        assert!(PulseTrain::nested_unary(pulses.clone()).is_ok());
        pulses[1].as_mut_slice()[3 * BLOCK + 4] = -1.0;
        assert_eq!(
            nesting_error(pulses.clone()),
            format!(
                "invalid argument: nested unary train rises at pulse 2, element {}",
                3 * BLOCK + 4
            )
        );
        pulses[1].as_mut_slice()[BLOCK + 7] = 0.0;
        assert_eq!(
            nesting_error(pulses),
            format!(
                "invalid argument: nested unary train has non-binary entry 0 (pulse 1, element {})",
                BLOCK + 7
            )
        );
    }

    #[test]
    fn iter_pairs_weights_with_pulses() {
        let train = PulseTrain::new(vec![t(&[1.0]), t(&[-1.0])], vec![0.5, 1.5]).unwrap();
        let collected: Vec<f32> = train.iter().map(|(w, p)| w * p.at(0)).collect();
        assert_eq!(collected, vec![0.5, -1.5]);
    }
}
