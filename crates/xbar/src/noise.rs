//! Aggregate noise specification for a crossbar deployment.

use membit_tensor::TensorError;

use crate::device::DeviceModel;
use crate::Result;

/// The complete noise configuration of a crossbar execution.
///
/// `output_sigma` is the paper's functional `N(0, σ²)` added to every
/// per-pulse analog MVM output (Eq. 1); the device-level terms live in the
/// embedded [`DeviceModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseSpec {
    /// Std-dev of additive Gaussian noise per pulse per output column,
    /// in units of the normalized (weight ±1, input ±1) MVM output.
    pub output_sigma: f32,
    /// Device model supplying d2d/c2c variation and faults.
    pub device: DeviceModel,
}

impl NoiseSpec {
    /// Noise-free crossbar with ideal devices.
    pub fn none() -> Self {
        Self {
            output_sigma: 0.0,
            device: DeviceModel::ideal(),
        }
    }

    /// The paper's functional model only: additive Gaussian output noise
    /// on ideal devices.
    pub fn functional(output_sigma: f32) -> Self {
        Self {
            output_sigma,
            device: DeviceModel::ideal(),
        }
    }

    /// Functional noise plus realistic device non-idealities.
    pub fn realistic(output_sigma: f32) -> Self {
        Self {
            output_sigma,
            device: DeviceModel::realistic(),
        }
    }

    /// Validates all embedded parameters.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for a non-finite or
    /// negative σ or an invalid device model.
    pub fn validate(&self) -> Result<()> {
        if !self.output_sigma.is_finite() || self.output_sigma < 0.0 {
            return Err(TensorError::InvalidArgument(format!(
                "output_sigma must be finite and non-negative, got {}",
                self.output_sigma
            )));
        }
        self.device.validate()
    }
}

impl Default for NoiseSpec {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        NoiseSpec::none().validate().unwrap();
        NoiseSpec::functional(10.0).validate().unwrap();
        NoiseSpec::realistic(5.0).validate().unwrap();
        assert_eq!(NoiseSpec::default(), NoiseSpec::none());
    }

    #[test]
    fn negative_sigma_rejected() {
        assert!(NoiseSpec::functional(-1.0).validate().is_err());
    }

    #[test]
    fn non_finite_sigma_rejected() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert!(matches!(
                NoiseSpec::functional(bad).validate(),
                Err(TensorError::InvalidArgument(_))
            ));
        }
    }
}
