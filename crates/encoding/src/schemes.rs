//! The bit-encoding schemes compared by the paper.

use membit_tensor::{Tensor, TensorError};

use crate::train::{PulseTrain, MAX_NESTED_PULSES};
use crate::Result;

/// Elements per block in the block-wise encode pass: a block of classes
/// (8 KiB) and one block of each of two pulses (4 KiB each) fit in L1
/// together.
const BLOCK: usize = 1024;

/// A scheme for converting a quantized activation in `[-1, 1]` into a
/// sequence of binary (±1) voltage pulses.
///
/// Implementations define the pulse count, the per-pulse accumulation
/// weight (1 for unary schemes, `2^i` for bit slicing), and therefore the
/// closed-form accumulated noise variance when each pulse's analog MVM
/// picks up independent `N(0, σ²)` noise.
///
/// A code is a lookup: [`class`](Self::class) snaps a value once to a
/// small key, and [`pulse`](Self::pulse) reads each entry of the code off
/// that key. [`encode_value`](Self::encode_value) and
/// [`encode_tensor`](Self::encode_tensor) are both built on the pair.
pub trait BitEncoder {
    /// Number of pulses per encoded value.
    fn num_pulses(&self) -> usize;

    /// Number of representable levels.
    fn num_levels(&self) -> usize;

    /// Accumulation weight of pulse `i`.
    fn pulse_weight(&self, i: usize) -> f32;

    /// Sum of all pulse weights (the decode normalizer).
    fn weight_norm(&self) -> f32 {
        (0..self.num_pulses()).map(|i| self.pulse_weight(i)).sum()
    }

    /// Snaps a finite `value` to its code class: the key its whole pulse
    /// code depends on. For thermometer-family codes that is the number
    /// of leading `+1` pulses; for the others, the snapped level.
    fn class(&self, value: f32) -> usize;

    /// Entry `i` of the pulse code of `class`.
    fn pulse(&self, class: usize, i: usize) -> f32;

    /// Encodes one value in `[-1, 1]` into its pulse sequence (each entry
    /// ±1). Values are snapped to the nearest representable level.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for non-finite input.
    fn encode_value(&self, value: f32) -> Result<Vec<f32>> {
        check_finite(value)?;
        let class = self.class(value);
        Ok((0..self.num_pulses())
            .map(|i| self.pulse(class, i))
            .collect())
    }

    /// Decodes a pulse sequence back to its value:
    /// `Σ w_i·x_i / Σ w_i`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] on a pulse-count mismatch.
    fn decode(&self, pulses: &[f32]) -> Result<f32> {
        if pulses.len() != self.num_pulses() {
            return Err(TensorError::InvalidArgument(format!(
                "expected {} pulses, got {}",
                self.num_pulses(),
                pulses.len()
            )));
        }
        let acc: f32 = pulses
            .iter()
            .enumerate()
            .map(|(i, &x)| self.pulse_weight(i) * x)
            .sum();
        Ok(acc / self.weight_norm())
    }

    /// Accumulated output noise variance when each pulse contributes
    /// independent `N(0, σ²)`: `Σw_i² / (Σw_i)² · σ²`.
    fn noise_variance(&self, sigma2: f32) -> f32 {
        let norm = self.weight_norm();
        let sq: f32 = (0..self.num_pulses())
            .map(|i| self.pulse_weight(i).powi(2))
            .sum();
        sq / (norm * norm) * sigma2
    }

    /// Whether this encoder's trains are nested unary codes
    /// ([`TrainKind::NestedUnary`](crate::TrainKind::NestedUnary)):
    /// unit-weight pulses where each element runs `+1…+1, −1…−1`, so
    /// [`class`](Self::class) is the element's number of `+1` pulses.
    /// Thermometer-family encoders override this so
    /// [`encode_tensor`](Self::encode_tensor) stores their trains as
    /// those counts and execution engines can use the incremental
    /// pulse-delta fast path.
    fn emits_nested_unary(&self) -> bool {
        false
    }

    /// Encodes a whole activation tensor (any shape) into a
    /// [`PulseTrain`]. Encoders with
    /// [`emits_nested_unary`](Self::emits_nested_unary) store one high
    /// count per element through [`PulseTrain::nested_unary`]; the others
    /// build one ±1 tensor per pulse plus the weights.
    ///
    /// Every pulse is bitwise that of [`encode_value`](Self::encode_value)
    /// per element. Values are checked and classed a block at a time; a
    /// dense train then appends the block's classes to every pulse in
    /// turn, so the classes stay in L1 and each pulse is written front to
    /// back exactly once.
    ///
    /// # Errors
    ///
    /// Returns the [`encode_value`](Self::encode_value) error of the first
    /// non-finite element.
    fn encode_tensor(&self, values: &Tensor) -> Result<PulseTrain>
    where
        Self: Sized,
    {
        let flat = values.as_slice();
        if self.emits_nested_unary() {
            let mut counts = Vec::with_capacity(flat.len());
            for block in flat.chunks(BLOCK) {
                block.iter().try_for_each(|&v| check_finite(v))?;
                // a class is at most the pulse count, which the
                // constructors cap at MAX_NESTED_PULSES: it fits a u16
                counts.extend(block.iter().map(|&v| self.class(v) as u16));
            }
            return PulseTrain::nested_unary(counts, values.shape(), self.num_pulses());
        }
        let mut pulses: Vec<Vec<f32>> = (0..self.num_pulses())
            .map(|_| Vec::with_capacity(flat.len()))
            .collect();
        let mut classes = Vec::with_capacity(BLOCK.min(flat.len()));
        for block in flat.chunks(BLOCK) {
            block.iter().try_for_each(|&v| check_finite(v))?;
            classes.clear();
            classes.extend(block.iter().map(|&v| self.class(v)));
            for (i, pulse) in pulses.iter_mut().enumerate() {
                pulse.extend(classes.iter().map(|&c| self.pulse(c, i)));
            }
        }
        let pulses = pulses
            .into_iter()
            .map(|data| Tensor::from_vec(data, values.shape()))
            .collect::<Result<Vec<_>>>()?;
        let weights = (0..self.num_pulses())
            .map(|i| self.pulse_weight(i))
            .collect();
        PulseTrain::new(pulses, weights)
    }
}

fn check_finite(value: f32) -> Result<()> {
    if value.is_finite() {
        Ok(())
    } else {
        Err(TensorError::InvalidArgument(format!(
            "cannot encode non-finite value {value}"
        )))
    }
}

/// Snaps `v ∈ [-1, 1]` to the index of the nearest of `levels` uniform
/// levels.
pub(crate) fn level_index(v: f32, levels: usize) -> usize {
    let l = (levels - 1) as f32;
    (((v.clamp(-1.0, 1.0) + 1.0) / 2.0 * l).round() as usize).min(levels - 1)
}

/// Entry `i` of a unit-weight code whose first `high` pulses are `+1`.
pub(crate) fn unary_pulse(high: usize, i: usize) -> f32 {
    if i < high {
        1.0
    } else {
        -1.0
    }
}

/// Thermometer (unary) coding: `p` equally-weighted ±1 pulses representing
/// `p + 1` levels. The paper's baseline scheme (Eq. 3) — noise variance
/// `σ²/p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Thermometer {
    pulses: usize,
}

impl Thermometer {
    /// Creates a `pulses`-pulse thermometer code.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for zero pulses, or for
    /// more than a count-coded train holds ([`MAX_NESTED_PULSES`]).
    pub fn new(pulses: usize) -> Result<Self> {
        if !(1..=MAX_NESTED_PULSES).contains(&pulses) {
            return Err(TensorError::InvalidArgument(format!(
                "thermometer code needs 1..={MAX_NESTED_PULSES} pulses, got {pulses}"
            )));
        }
        Ok(Self { pulses })
    }

    /// Number of `+1` pulses used to represent `value`.
    pub fn high_count(&self, value: f32) -> usize {
        level_index(value, self.pulses + 1)
    }
}

impl BitEncoder for Thermometer {
    fn num_pulses(&self) -> usize {
        self.pulses
    }

    fn num_levels(&self) -> usize {
        self.pulses + 1
    }

    fn pulse_weight(&self, _i: usize) -> f32 {
        1.0
    }

    fn emits_nested_unary(&self) -> bool {
        true
    }

    fn class(&self, value: f32) -> usize {
        self.high_count(value)
    }

    fn pulse(&self, class: usize, i: usize) -> f32 {
        unary_pulse(class, i)
    }
}

/// Bit slicing: `p` pulses weighted by bit position (`2^i`), representing
/// `2^p` levels. Eq. 2 — the weighted accumulation amplifies noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitSlicing {
    bits: usize,
}

impl BitSlicing {
    /// Creates a `bits`-pulse bit-sliced code.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for zero bits or more than
    /// 23 bits (f32 mantissa limit for exact level arithmetic).
    pub fn new(bits: usize) -> Result<Self> {
        if bits == 0 || bits > 23 {
            return Err(TensorError::InvalidArgument(format!(
                "bit slicing supports 1..=23 bits, got {bits}"
            )));
        }
        Ok(Self { bits })
    }
}

impl BitEncoder for BitSlicing {
    fn num_pulses(&self) -> usize {
        self.bits
    }

    fn num_levels(&self) -> usize {
        1 << self.bits
    }

    fn pulse_weight(&self, i: usize) -> f32 {
        (1u32 << i) as f32
    }

    fn class(&self, value: f32) -> usize {
        level_index(value, self.num_levels())
    }

    fn pulse(&self, class: usize, i: usize) -> f32 {
        if class & (1 << i) != 0 {
            1.0
        } else {
            -1.0
        }
    }
}

/// Amplitude (multi-level DAC) encoding: a single analog "pulse" carrying
/// the full value. The high-precision-DAC reference the paper's §II-B
/// argues against; noise variance is the full `σ²`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Amplitude {
    levels: usize,
}

impl Amplitude {
    /// Creates an amplitude encoder with the given resolution.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for fewer than 2 levels.
    pub fn new(levels: usize) -> Result<Self> {
        if levels < 2 {
            return Err(TensorError::InvalidArgument(
                "amplitude encoding needs ≥ 2 levels".into(),
            ));
        }
        Ok(Self { levels })
    }
}

impl BitEncoder for Amplitude {
    fn num_pulses(&self) -> usize {
        1
    }

    fn num_levels(&self) -> usize {
        self.levels
    }

    fn pulse_weight(&self, _i: usize) -> f32 {
        1.0
    }

    fn class(&self, value: f32) -> usize {
        level_index(value, self.levels)
    }

    fn pulse(&self, class: usize, _i: usize) -> f32 {
        class as f32 / (self.levels - 1) as f32 * 2.0 - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thermometer_roundtrip_all_levels() {
        let enc = Thermometer::new(8).unwrap();
        assert_eq!(enc.num_levels(), 9);
        for k in 0..=8 {
            let v = k as f32 / 8.0 * 2.0 - 1.0;
            let code = enc.encode_value(v).unwrap();
            assert_eq!(code.iter().filter(|&&x| x == 1.0).count(), k);
            assert!((enc.decode(&code).unwrap() - v).abs() < 1e-6);
        }
    }

    #[test]
    fn thermometer_snaps_to_nearest_level() {
        let enc = Thermometer::new(4).unwrap(); // levels at -1,-.5,0,.5,1
        assert_eq!(enc.high_count(0.1), 2);
        assert_eq!(enc.high_count(0.3), 3);
        assert_eq!(enc.high_count(-2.0), 0);
        assert_eq!(enc.high_count(2.0), 4);
    }

    #[test]
    fn bit_slicing_roundtrip_all_levels() {
        let enc = BitSlicing::new(3).unwrap();
        assert_eq!(enc.num_levels(), 8);
        for level in 0..8 {
            let v = level as f32 / 7.0 * 2.0 - 1.0;
            let code = enc.encode_value(v).unwrap();
            assert!(
                (enc.decode(&code).unwrap() - v).abs() < 1e-6,
                "level {level}"
            );
        }
    }

    #[test]
    fn bit_slicing_weights_are_powers_of_two() {
        let enc = BitSlicing::new(4).unwrap();
        assert_eq!(
            (0..4).map(|i| enc.pulse_weight(i)).collect::<Vec<_>>(),
            vec![1.0, 2.0, 4.0, 8.0]
        );
        assert_eq!(enc.weight_norm(), 15.0);
    }

    #[test]
    fn eq2_eq3_noise_variance() {
        // Eq. 3: thermometer σ²/p
        let tc = Thermometer::new(8).unwrap();
        assert!((tc.noise_variance(4.0) - 0.5).abs() < 1e-6);
        // Eq. 2: bit slicing Σ4^i/(Σ2^i)²·σ², b=3 → 21/49
        let bs = BitSlicing::new(3).unwrap();
        assert!((bs.noise_variance(1.0) - 21.0 / 49.0).abs() < 1e-6);
    }

    #[test]
    fn thermometer_beats_bit_slicing_at_equal_information() {
        // at b-bit information: thermometer needs 2^b − 1 pulses
        for b in 2..=6usize {
            let bs = BitSlicing::new(b).unwrap();
            let tc = Thermometer::new((1 << b) - 1).unwrap();
            assert_eq!(bs.num_levels(), tc.num_levels());
            assert!(tc.noise_variance(1.0) < bs.noise_variance(1.0), "b = {b}");
        }
    }

    #[test]
    fn amplitude_single_pulse_full_variance() {
        let enc = Amplitude::new(9).unwrap();
        assert_eq!(enc.num_pulses(), 1);
        assert_eq!(enc.noise_variance(2.5), 2.5);
        let code = enc.encode_value(0.25).unwrap();
        assert_eq!(code, vec![0.25]);
    }

    #[test]
    fn constructors_validate() {
        assert!(Thermometer::new(0).is_err());
        // the longest code a count-coded train holds, and one past it
        assert!(Thermometer::new(MAX_NESTED_PULSES).is_ok());
        assert!(Thermometer::new(MAX_NESTED_PULSES + 1).is_err());
        assert!(BitSlicing::new(0).is_err());
        assert!(BitSlicing::new(24).is_err());
        assert!(Amplitude::new(1).is_err());
    }

    #[test]
    fn non_finite_rejected() {
        let enc = Thermometer::new(4).unwrap();
        assert!(enc.encode_value(f32::NAN).is_err());
        assert!(enc.encode_value(f32::INFINITY).is_err());
    }

    #[test]
    fn decode_validates_length() {
        let enc = Thermometer::new(4).unwrap();
        assert!(enc.decode(&[1.0, 1.0]).is_err());
    }

    #[test]
    fn encode_tensor_builds_pulse_train() {
        let enc = Thermometer::new(4).unwrap();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 1.0], &[3]).unwrap();
        let train = enc.encode_tensor(&x).unwrap();
        assert_eq!(train.num_pulses(), 4);
        let decoded = train.decode().unwrap();
        assert!(decoded.allclose(&x, 1e-6));
    }
}
