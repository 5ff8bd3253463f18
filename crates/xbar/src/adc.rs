//! Per-column analog-to-digital conversion.

use membit_tensor::TensorError;

use crate::Result;

/// A uniform mid-rise ADC with symmetric clipping range `[-range, range]`.
///
/// Crossbar column currents are digitized once per pulse per tile; the
/// resolution/range trade-off is a first-order contributor to crossbar
/// accuracy loss (ISAAC-style designs spend most of their power here).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adc {
    bits: u32,
    range: f32,
}

impl Adc {
    /// Creates an ADC with the given resolution and full-scale range.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for zero bits, more than
    /// 24 bits, or a non-positive range.
    pub fn new(bits: u32, range: f32) -> Result<Self> {
        if bits == 0 || bits > 24 {
            return Err(TensorError::InvalidArgument(format!(
                "adc resolution must be 1..=24 bits, got {bits}"
            )));
        }
        if range <= 0.0 || range.is_nan() {
            return Err(TensorError::InvalidArgument(format!(
                "adc range must be positive, got {range}"
            )));
        }
        Ok(Self { bits, range })
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Full-scale range.
    pub fn range(&self) -> f32 {
        self.range
    }

    /// Number of quantization codes.
    pub fn codes(&self) -> u64 {
        1u64 << self.bits
    }

    /// Width of one quantization step.
    pub fn step(&self) -> f32 {
        2.0 * self.range / self.codes() as f32
    }

    /// Digitizes one analog value: clip to `±range`, quantize to the
    /// nearest code center.
    pub fn convert(&self, analog: f32) -> f32 {
        let clipped = analog.clamp(-self.range, self.range);
        let step = self.step();
        // mid-rise: code centers at (k + 0.5)·step − range
        let code = ((clipped + self.range) / step)
            .floor()
            .min((self.codes() - 1) as f32);
        (code + 0.5) * step - self.range
    }

    /// Digitizes a buffer in place.
    pub fn convert_slice(&self, values: &mut [f32]) {
        for v in values {
            *v = self.convert(*v);
        }
    }

    /// Worst-case quantization error (half a step) inside the range.
    pub fn max_quantization_error(&self) -> f32 {
        self.step() / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(Adc::new(0, 1.0).is_err());
        assert!(Adc::new(25, 1.0).is_err());
        assert!(Adc::new(8, 0.0).is_err());
        assert!(Adc::new(8, -1.0).is_err());
        Adc::new(8, 64.0).unwrap();
    }

    #[test]
    fn quantization_error_bounded() {
        let adc = Adc::new(6, 8.0).unwrap();
        let max_err = adc.max_quantization_error();
        for i in -80..=80 {
            let v = i as f32 / 10.0;
            let q = adc.convert(v);
            assert!((q - v).abs() <= max_err + 1e-6, "v={v}, q={q}");
        }
    }

    #[test]
    fn clipping_saturates() {
        let adc = Adc::new(4, 1.0).unwrap();
        let top = adc.convert(100.0);
        let bottom = adc.convert(-100.0);
        assert!(top <= 1.0 && top > 0.8);
        assert!((-1.0..-0.8).contains(&bottom));
    }

    #[test]
    fn monotone_nondecreasing() {
        let adc = Adc::new(5, 4.0).unwrap();
        let mut prev = f32::NEG_INFINITY;
        for i in -50..=50 {
            let q = adc.convert(i as f32 / 10.0);
            assert!(q >= prev);
            prev = q;
        }
    }

    #[test]
    fn high_resolution_is_nearly_transparent() {
        let adc = Adc::new(16, 32.0).unwrap();
        assert!((adc.convert(3.21875) - 3.21875).abs() < 1e-3);
    }

    #[test]
    fn convert_slice_matches_scalar() {
        let adc = Adc::new(6, 2.0).unwrap();
        let mut buf = [0.3, -1.7, 5.0];
        adc.convert_slice(&mut buf);
        assert_eq!(buf[0], adc.convert(0.3));
        assert_eq!(buf[1], adc.convert(-1.7));
        assert_eq!(buf[2], adc.convert(5.0));
    }

    #[test]
    fn step_and_codes() {
        let adc = Adc::new(3, 4.0).unwrap();
        assert_eq!(adc.codes(), 8);
        assert_eq!(adc.step(), 1.0);
        assert_eq!(adc.bits(), 3);
        assert_eq!(adc.range(), 4.0);
    }
}
