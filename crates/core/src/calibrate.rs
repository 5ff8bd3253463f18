//! Mapping the paper's unit-less σ onto this simulator's scale.
//!
//! The paper reports σ ∈ {10, 15, 20} in the (unstated) units of its
//! un-normalized MVM outputs. We make the mapping explicit: calibration
//! measures each crossbar layer's clean MVM output RMS on the pre-trained
//! network, and a paper-σ converts to per-layer absolute per-pulse noise
//! as `σ_abs(l) = σ/unit × RMS(l)`. The `unit` constant is chosen once so
//! the Baseline degradation ladder matches the paper's (≈ 84 → 62 → 31 %);
//! everything else (the 1/√p suppression, the layer-wise heterogeneity,
//! the GBO optimization) then follows the paper's equations exactly.

use membit_autograd::Tape;
use membit_data::Dataset;
use membit_nn::{Params, Phase};
use membit_tensor::TensorError;

use crate::hooks::RmsRecorder;
use crate::model::CrossbarModel;
use crate::Result;

/// Per-layer noise scale derived from the clean network.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseCalibration {
    rms: Vec<f32>,
    unit: f32,
}

impl NoiseCalibration {
    /// Wraps measured per-layer RMS values with the σ-unit divisor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for an empty RMS vector,
    /// an RMS entry that is negative or not finite, or a non-positive
    /// unit.
    pub fn new(rms: Vec<f32>, unit: f32) -> Result<Self> {
        if rms.is_empty() {
            return Err(TensorError::InvalidArgument(
                "calibration needs at least one layer".into(),
            )
            .into());
        }
        if let Some((layer, r)) = rms
            .iter()
            .enumerate()
            .find(|(_, r)| !(r.is_finite() && **r >= 0.0))
        {
            return Err(TensorError::InvalidArgument(format!(
                "layer {layer}'s RMS must be finite and non-negative, got {r}"
            ))
            .into());
        }
        if unit <= 0.0 || unit.is_nan() {
            return Err(TensorError::InvalidArgument(format!(
                "sigma unit must be positive, got {unit}"
            ))
            .into());
        }
        Ok(Self { rms, unit })
    }

    /// The measured per-layer clean MVM RMS.
    pub fn rms(&self) -> &[f32] {
        &self.rms
    }

    /// The paper-σ divisor.
    pub fn unit(&self) -> f32 {
        self.unit
    }

    /// Number of crossbar layers.
    pub fn layers(&self) -> usize {
        self.rms.len()
    }

    /// Per-layer absolute per-pulse noise for a paper-σ.
    pub fn sigma_abs(&self, paper_sigma: f32) -> Vec<f32> {
        self.rms
            .iter()
            .map(|&r| paper_sigma / self.unit * r)
            .collect()
    }
}

/// Measures every crossbar layer's clean MVM output RMS over up to
/// `max_batches` evaluation batches and wraps it with `unit`.
///
/// # Errors
///
/// Propagates forward-pass errors, or
/// [`TensorError::InvalidArgument`] for an empty dataset, a zero
/// `batch_size` or a zero `max_batches` (no forward, so no RMS to
/// measure).
pub fn calibrate_noise(
    model: &mut dyn CrossbarModel,
    params: &Params,
    data: &Dataset,
    batch_size: usize,
    max_batches: usize,
    unit: f32,
) -> Result<NoiseCalibration> {
    let batches = data.batches(batch_size)?;
    if data.is_empty() {
        return Err(
            TensorError::InvalidArgument("cannot calibrate on an empty dataset".into()).into(),
        );
    }
    if max_batches == 0 {
        return Err(
            TensorError::InvalidArgument("calibration needs at least one batch".into()).into(),
        );
    }
    let mut recorder = RmsRecorder::new(model.crossbar_layers());
    // one tape for every batch: reset() keeps its im2col buffers
    let mut tape = Tape::new();
    for (images, _labels) in batches.take(max_batches) {
        tape.reset();
        let mut binding = params.frozen_binding();
        let x = tape.constant(images);
        model.forward(
            &mut tape,
            params,
            &mut binding,
            x,
            Phase::Eval,
            &mut recorder,
        )?;
    }
    NoiseCalibration::new(recorder.rms(), unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use membit_data::{synth_cifar, SynthCifarConfig};
    use membit_nn::{Mlp, MlpConfig};
    use membit_tensor::Rng;

    #[test]
    fn calibration_validates() {
        assert!(NoiseCalibration::new(vec![], 10.0).is_err());
        assert!(NoiseCalibration::new(vec![1.0], 0.0).is_err());
        let c = NoiseCalibration::new(vec![2.0, 4.0], 10.0).unwrap();
        assert_eq!(c.sigma_abs(5.0), vec![1.0, 2.0]);
        assert_eq!(c.layers(), 2);
        assert_eq!(c.unit(), 10.0);
        // a zero batch size is refused typed, never a panic
        let mut params = Params::new();
        let mut mlp = Mlp::new(
            &MlpConfig::new(4, &[4], 2),
            &mut params,
            &mut Rng::from_seed(0),
        )
        .unwrap();
        let data =
            Dataset::new(membit_tensor::Tensor::zeros(&[3, 1, 2, 2]), vec![0; 3], 2).unwrap();
        assert!(matches!(
            calibrate_noise(&mut mlp, &params, &data, 0, 1, 10.0),
            Err(crate::TrainError::Tensor(TensorError::InvalidArgument(_)))
        ));
    }

    #[test]
    fn zero_batches_and_malformed_rms_are_rejected() {
        // no forward would run: every σ would silently be 0
        let mut params = Params::new();
        let mut mlp = Mlp::new(
            &MlpConfig::new(4, &[4], 2),
            &mut params,
            &mut Rng::from_seed(0),
        )
        .unwrap();
        let data =
            Dataset::new(membit_tensor::Tensor::zeros(&[3, 1, 2, 2]), vec![0; 3], 2).unwrap();
        assert!(matches!(
            calibrate_noise(&mut mlp, &params, &data, 2, 0, 10.0),
            Err(crate::TrainError::Tensor(TensorError::InvalidArgument(_)))
        ));
        for bad in [f32::NAN, -1.0, f32::INFINITY] {
            assert!(
                matches!(
                    NoiseCalibration::new(vec![1.0, bad], 10.0),
                    Err(crate::TrainError::Tensor(TensorError::InvalidArgument(_)))
                ),
                "RMS {bad} accepted"
            );
        }
        // a layer whose clean output is all zero has zero RMS
        let c = NoiseCalibration::new(vec![0.0, 2.0], 10.0).unwrap();
        assert_eq!(c.sigma_abs(5.0), vec![0.0, 1.0]);
    }

    #[test]
    fn calibrate_on_mlp_measures_positive_rms() {
        let mut rng = Rng::from_seed(0);
        let mut params = Params::new();
        let mut mlp = Mlp::new(
            &MlpConfig::new(3 * 8 * 8, &[16, 12], 10),
            &mut params,
            &mut rng,
        )
        .unwrap();
        let (train, _) = synth_cifar(&SynthCifarConfig::tiny(), 1).unwrap();
        let cal = calibrate_noise(&mut mlp, &params, &train, 16, 4, 10.0).unwrap();
        assert_eq!(cal.layers(), 2);
        assert!(cal.rms().iter().all(|&r| r > 0.0), "{:?}", cal.rms());
        // deterministic under repeat
        let cal2 = calibrate_noise(&mut mlp, &params, &train, 16, 4, 10.0).unwrap();
        assert_eq!(cal.rms(), cal2.rms());
    }

    #[test]
    fn empty_dataset_rejected() {
        let mut rng = Rng::from_seed(0);
        let mut params = Params::new();
        let mut mlp = Mlp::new(&MlpConfig::new(4, &[4], 2), &mut params, &mut rng).unwrap();
        let empty = Dataset::new(membit_tensor::Tensor::zeros(&[0, 1, 2, 2]), vec![], 2).unwrap();
        assert!(calibrate_noise(&mut mlp, &params, &empty, 4, 1, 10.0).is_err());
    }
}
