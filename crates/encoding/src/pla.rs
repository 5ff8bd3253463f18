//! Pulse Length Approximation (PLA, paper §III-B).
//!
//! The GBO ensemble strategy only reaches pulse counts that are integer
//! multiples of the base code (`8, 16, 24, …` for `p = 8`). PLA
//! re-expresses a thermometer code at *any* pulse count `q` by scaling the
//! number of `+1` pulses to `round(frac·q)` — operationally, adding or
//! removing pulses toward the −1/+1 saturation values that deep-layer
//! activations concentrate on (batch norm + bounded `tanh`). The snap
//! introduces a bounded representation error which the paper reports (and
//! we verify) to be negligible.

use membit_tensor::TensorError;

use crate::schemes::{level_index, unary_pulse};
use crate::train::MAX_NESTED_PULSES;
use crate::{BitEncoder, Result};

/// A thermometer code re-expressed at an arbitrary pulse count.
///
/// `PlaThermometer::new(9, 10)` takes 9-level activations (the base
/// 8-pulse code of the paper) and emits 10-pulse codes — the paper's
/// `PLA₁₀`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaThermometer {
    /// Number of source quantization levels (base pulses + 1).
    levels: usize,
    /// Emitted pulse count.
    pulses: usize,
}

impl PlaThermometer {
    /// Creates a PLA encoder from `levels`-level activations to `pulses`
    /// pulses.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for `levels < 2`, zero
    /// pulses, or more pulses than a count-coded train holds
    /// ([`MAX_NESTED_PULSES`]).
    pub fn new(levels: usize, pulses: usize) -> Result<Self> {
        if levels < 2 {
            return Err(TensorError::InvalidArgument(
                "PLA needs ≥ 2 source levels".into(),
            ));
        }
        if !(1..=MAX_NESTED_PULSES).contains(&pulses) {
            return Err(TensorError::InvalidArgument(format!(
                "PLA needs 1..={MAX_NESTED_PULSES} output pulses, got {pulses}"
            )));
        }
        Ok(Self { levels, pulses })
    }

    /// Emitted pulse count `q`.
    pub fn pulses(&self) -> usize {
        self.pulses
    }

    /// Source level count.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Number of `+1` pulses representing `value` at this pulse count.
    ///
    /// Rounding is to the nearest representable level, with exact ties
    /// broken **toward the saturation value of the input's sign** — the
    /// paper's "approximate x̂ towards −1 or 1 according to its sign"
    /// (§III-B). Sign-directed tie-breaking keeps the approximation
    /// bias-free over a symmetric activation distribution, where naive
    /// round-half-away-from-zero would shift every tied level toward +1
    /// and visibly corrupt the batch-norm statistics downstream.
    pub fn high_count(&self, value: f32) -> usize {
        let frac = level_index(value, self.levels) as f32 / (self.levels - 1) as f32;
        let t = frac * self.pulses as f32;
        let is_tie = (t - t.floor() - 0.5).abs() < 1e-4;
        let high = if is_tie {
            if value > 0.0 {
                t.ceil()
            } else if value < 0.0 {
                t.floor()
            } else {
                // dead-center value: round half to even
                let fl = t.floor();
                if (fl as i64) % 2 == 0 {
                    fl
                } else {
                    t.ceil()
                }
            }
        } else {
            t.round()
        };
        high as usize
    }

    /// The value actually represented after the PLA snap of `value`.
    pub fn approximate(&self, value: f32) -> f32 {
        self.high_count(value) as f32 / self.pulses as f32 * 2.0 - 1.0
    }

    /// Worst-case absolute representation error over all source levels.
    pub fn max_representation_error(&self) -> f32 {
        (0..self.levels)
            .map(|k| {
                let v = k as f32 / (self.levels - 1) as f32 * 2.0 - 1.0;
                (self.approximate(v) - v).abs()
            })
            .fold(0.0, f32::max)
    }

    /// Mean absolute representation error over all source levels.
    pub fn mean_representation_error(&self) -> f32 {
        let total: f32 = (0..self.levels)
            .map(|k| {
                let v = k as f32 / (self.levels - 1) as f32 * 2.0 - 1.0;
                (self.approximate(v) - v).abs()
            })
            .sum();
        total / self.levels as f32
    }
}

impl BitEncoder for PlaThermometer {
    fn num_pulses(&self) -> usize {
        self.pulses
    }

    fn num_levels(&self) -> usize {
        self.levels
    }

    fn pulse_weight(&self, _i: usize) -> f32 {
        1.0
    }

    fn emits_nested_unary(&self) -> bool {
        true
    }

    /// The PLA high count: the snapped level plus, at a tie, the sign of
    /// `value`.
    fn class(&self, value: f32) -> usize {
        self.high_count(value)
    }

    fn pulse(&self, class: usize, i: usize) -> f32 {
        unary_pulse(class, i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_multiples_are_exact() {
        // q = 2·(levels−1): every source level is exactly representable
        let pla = PlaThermometer::new(9, 16).unwrap();
        assert_eq!(pla.max_representation_error(), 0.0);
        let pla24 = PlaThermometer::new(9, 24).unwrap();
        assert_eq!(pla24.max_representation_error(), 0.0);
    }

    #[test]
    fn fractional_counts_have_bounded_error() {
        // the paper's PLA₁₀/PLA₁₂/PLA₁₄ grid over 9-level activations
        for q in [10usize, 12, 14] {
            let pla = PlaThermometer::new(9, q).unwrap();
            let err = pla.max_representation_error();
            assert!(err > 0.0, "q={q} should be approximate");
            // error is at most half an output step
            assert!(err <= 1.0 / q as f32 + 1e-6, "q={q}, err={err}");
        }
    }

    #[test]
    fn saturation_values_always_exact() {
        // ±1 are exactly representable at every pulse count — the
        // observation PLA exploits.
        for q in 1..40usize {
            let pla = PlaThermometer::new(9, q).unwrap();
            assert_eq!(pla.approximate(1.0), 1.0, "q={q}");
            assert_eq!(pla.approximate(-1.0), -1.0, "q={q}");
        }
    }

    #[test]
    fn encode_decode_is_the_approximation() {
        let pla = PlaThermometer::new(9, 10).unwrap();
        for k in 0..9 {
            let v = k as f32 / 8.0 * 2.0 - 1.0;
            let code = pla.encode_value(v).unwrap();
            let decoded = pla.decode(&code).unwrap();
            assert!((decoded - pla.approximate(v)).abs() < 1e-6);
        }
    }

    #[test]
    fn noise_variance_scales_inverse_with_pulses() {
        // more pulses at the same information ⇒ lower variance (Eq. 4)
        let base = PlaThermometer::new(9, 8).unwrap();
        let longer = PlaThermometer::new(9, 16).unwrap();
        assert!((base.noise_variance(1.0) - 1.0 / 8.0).abs() < 1e-7);
        assert!((longer.noise_variance(1.0) - 1.0 / 16.0).abs() < 1e-7);
    }

    #[test]
    fn constructors_validate() {
        assert!(PlaThermometer::new(1, 4).is_err());
        assert!(PlaThermometer::new(9, 0).is_err());
        assert!(PlaThermometer::new(9, MAX_NESTED_PULSES).is_ok());
        assert!(PlaThermometer::new(9, MAX_NESTED_PULSES + 1).is_err());
    }

    #[test]
    fn snap_is_bias_free_over_symmetric_levels() {
        // sign-directed tie-breaking: the signed approximation error must
        // sum to (near) zero over the symmetric 9-level grid for every
        // pulse count of the paper's search space.
        for q in [4usize, 6, 8, 10, 12, 14, 16] {
            let pla = PlaThermometer::new(9, q).unwrap();
            let bias: f32 = (0..9)
                .map(|k| {
                    let v = k as f32 / 8.0 * 2.0 - 1.0;
                    pla.approximate(v) - v
                })
                .sum();
            assert!(bias.abs() < 1e-5, "q={q}: bias {bias}");
        }
    }

    #[test]
    fn snap_is_odd_symmetric() {
        // approximate(−v) == −approximate(v) for every level
        for q in [10usize, 12, 14] {
            let pla = PlaThermometer::new(9, q).unwrap();
            for k in 0..9 {
                let v = k as f32 / 8.0 * 2.0 - 1.0;
                assert!(
                    (pla.approximate(v) + pla.approximate(-v)).abs() < 1e-6,
                    "q={q}, v={v}"
                );
            }
        }
    }

    #[test]
    fn mean_error_below_max_error() {
        let pla = PlaThermometer::new(9, 10).unwrap();
        assert!(pla.mean_representation_error() <= pla.max_representation_error());
    }
}
