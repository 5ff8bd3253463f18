//! Memristive device model: binary conductance states and their
//! non-idealities.

use membit_tensor::{Rng, TensorError};

use crate::Result;

/// Persistent manufacturing state of one physical cell.
///
/// Drawn once when a tile is constructed; stuck cells stay stuck through
/// any number of re-programming pulses, which is what makes fault
/// *recovery* (remapping around the cell) meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellHealth {
    /// Programs normally.
    Healthy,
    /// Pinned at `G_on`.
    StuckOn,
    /// Pinned at `G_off`.
    StuckOff,
}

impl CellHealth {
    /// Whether the cell is pinned to one conductance level.
    pub fn is_stuck(self) -> bool {
        self != CellHealth::Healthy
    }
}

/// Electrical model of one binary NVM cell.
///
/// A logical binary weight `±1` maps onto a **differential pair** of
/// cells: `+1 → (G_on, G_off)`, `−1 → (G_off, G_on)`; the column current
/// difference, normalized by `G_on − G_off`, recovers the signed weight.
/// Finite `on_off_ratio` means `G_off > 0`, which cancels in the
/// differential read but matters for energy.
///
/// Non-idealities:
/// * `d2d_sigma` — device-to-device **programming** variation: each cell's
///   conductance is drawn once (lognormal, multiplicative) at program
///   time.
/// * `c2c_sigma` — cycle-to-cycle **read** variation: a fresh
///   multiplicative Gaussian per cell per pulse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceModel {
    /// On-state conductance (µS).
    pub g_on: f32,
    /// Ratio `G_on / G_off`.
    pub on_off_ratio: f32,
    /// Lognormal σ of device-to-device programming variation.
    pub d2d_sigma: f32,
    /// Gaussian σ (relative) of cycle-to-cycle read noise.
    pub c2c_sigma: f32,
    /// Probability a cell is stuck at `G_on`.
    pub stuck_on_rate: f32,
    /// Probability a cell is stuck at `G_off`.
    pub stuck_off_rate: f32,
}

impl DeviceModel {
    /// An ideal device: infinite precision, no variation, no faults.
    pub fn ideal() -> Self {
        Self {
            g_on: 100.0,
            on_off_ratio: 1e6,
            d2d_sigma: 0.0,
            c2c_sigma: 0.0,
            stuck_on_rate: 0.0,
            stuck_off_rate: 0.0,
        }
    }

    /// A representative realistic binary ReRAM cell: on/off ratio 20,
    /// 5 % programming variation, 2 % read noise, 0.1 % stuck cells.
    pub fn realistic() -> Self {
        Self {
            g_on: 100.0,
            on_off_ratio: 20.0,
            d2d_sigma: 0.05,
            c2c_sigma: 0.02,
            stuck_on_rate: 0.001,
            stuck_off_rate: 0.001,
        }
    }

    /// Off-state conductance.
    pub fn g_off(&self) -> f32 {
        self.g_on / self.on_off_ratio
    }

    /// Validates parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for non-finite or
    /// non-positive conductances/ratios, non-finite or negative sigmas,
    /// or fault rates outside `[0, 1]`.
    pub fn validate(&self) -> Result<()> {
        // written to also reject NaN and ±∞
        let finite_above = |v: f32, floor: f32| v.is_finite() && v > floor;
        if !finite_above(self.g_on, 0.0) || !finite_above(self.on_off_ratio, 1.0) {
            return Err(TensorError::InvalidArgument(format!(
                "need finite g_on > 0 and on_off_ratio > 1, got {} / {}",
                self.g_on, self.on_off_ratio
            )));
        }
        let sigma_ok = |v: f32| v.is_finite() && v >= 0.0;
        if !sigma_ok(self.d2d_sigma) || !sigma_ok(self.c2c_sigma) {
            return Err(TensorError::InvalidArgument(format!(
                "variation sigmas must be finite and non-negative, got d2d {} / c2c {}",
                self.d2d_sigma, self.c2c_sigma
            )));
        }
        let total_fault = self.stuck_on_rate + self.stuck_off_rate;
        if !(0.0..=1.0).contains(&self.stuck_on_rate)
            || !(0.0..=1.0).contains(&self.stuck_off_rate)
            || total_fault > 1.0
        {
            return Err(TensorError::InvalidArgument(
                "stuck rates must lie in [0, 1] and sum to ≤ 1".into(),
            ));
        }
        Ok(())
    }

    /// Draws the manufacturing health of one physical cell. Stuck faults
    /// are a *persistent* property of the cell: once drawn, every
    /// subsequent programming pulse lands on the stuck level regardless of
    /// the target (re-programming cannot cure a stuck cell).
    pub fn sample_health(&self, rng: &mut Rng) -> CellHealth {
        if rng.coin(self.stuck_on_rate) {
            CellHealth::StuckOn
        } else if rng.coin(self.stuck_off_rate / (1.0 - self.stuck_on_rate).max(1e-9)) {
            CellHealth::StuckOff
        } else {
            CellHealth::Healthy
        }
    }

    /// Samples the as-programmed conductance of a cell of known `health`
    /// targeted at state `on` (d2d variation applies on top of whatever
    /// level the cell physically reaches, stuck or not).
    pub fn program_cell_with_health(&self, health: CellHealth, on: bool, rng: &mut Rng) -> f32 {
        let target = match health {
            CellHealth::StuckOn => self.g_on,
            CellHealth::StuckOff => self.g_off(),
            CellHealth::Healthy if on => self.g_on,
            CellHealth::Healthy => self.g_off(),
        };
        if self.d2d_sigma > 0.0 {
            target * rng.normal(0.0, self.d2d_sigma).exp()
        } else {
            target
        }
    }

    /// Samples the as-programmed conductance of a cell targeted at state
    /// `on` (applying stuck faults and d2d variation). The stuck fate is
    /// re-drawn per call; tile-level code that must model *persistent*
    /// faults draws [`sample_health`](Self::sample_health) once and uses
    /// [`program_cell_with_health`](Self::program_cell_with_health).
    pub fn program_cell(&self, on: bool, rng: &mut Rng) -> f32 {
        let health = self.sample_health(rng);
        self.program_cell_with_health(health, on, rng)
    }

    /// Samples the conductance observed on one read of a cell programmed
    /// to `g_prog`.
    pub fn read_cell(&self, g_prog: f32, rng: &mut Rng) -> f32 {
        if self.c2c_sigma > 0.0 {
            g_prog * (1.0 + rng.normal(0.0, self.c2c_sigma))
        } else {
            g_prog
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_device_is_deterministic() {
        let d = DeviceModel::ideal();
        d.validate().unwrap();
        let mut rng = Rng::from_seed(0);
        assert_eq!(d.program_cell(true, &mut rng), d.g_on);
        assert_eq!(d.program_cell(false, &mut rng), d.g_off());
        assert_eq!(d.read_cell(42.0, &mut rng), 42.0);
    }

    #[test]
    fn validation_rejects_bad_params() {
        let mut d = DeviceModel::ideal();
        d.g_on = 0.0;
        assert!(d.validate().is_err());
        let mut d2 = DeviceModel::ideal();
        d2.on_off_ratio = 0.5;
        assert!(d2.validate().is_err());
        let mut d3 = DeviceModel::ideal();
        d3.d2d_sigma = -0.1;
        assert!(d3.validate().is_err());
        let mut d4 = DeviceModel::ideal();
        d4.stuck_on_rate = 0.8;
        d4.stuck_off_rate = 0.5;
        assert!(d4.validate().is_err());
    }

    #[test]
    fn validation_rejects_non_finite_params() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let fields: [fn(&mut DeviceModel) -> &mut f32; 6] = [
                |d| &mut d.g_on,
                |d| &mut d.on_off_ratio,
                |d| &mut d.d2d_sigma,
                |d| &mut d.c2c_sigma,
                |d| &mut d.stuck_on_rate,
                |d| &mut d.stuck_off_rate,
            ];
            for (k, field) in fields.iter().enumerate() {
                let mut d = DeviceModel::realistic();
                *field(&mut d) = bad;
                assert!(
                    matches!(d.validate(), Err(TensorError::InvalidArgument(_))),
                    "field {k} = {bad} must be rejected"
                );
            }
        }
    }

    #[test]
    fn d2d_variation_spreads_conductance() {
        let mut d = DeviceModel::ideal();
        d.d2d_sigma = 0.1;
        let mut rng = Rng::from_seed(1);
        let samples: Vec<f32> = (0..2000).map(|_| d.program_cell(true, &mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / samples.len() as f32;
        // lognormal with σ=0.1: mean ≈ g_on·e^{σ²/2} ≈ 100.5
        assert!((mean - 100.5).abs() < 1.5, "mean = {mean}");
        assert!(samples.iter().any(|&g| (g - 100.0).abs() > 5.0));
    }

    #[test]
    fn stuck_on_forces_on_state() {
        let mut d = DeviceModel::ideal();
        d.stuck_on_rate = 1.0;
        let mut rng = Rng::from_seed(2);
        // even cells targeted off read g_on
        assert_eq!(d.program_cell(false, &mut rng), d.g_on);
    }

    #[test]
    fn read_noise_is_zero_mean() {
        let mut d = DeviceModel::ideal();
        d.c2c_sigma = 0.05;
        let mut rng = Rng::from_seed(3);
        let samples: Vec<f32> = (0..5000).map(|_| d.read_cell(100.0, &mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / samples.len() as f32;
        assert!((mean - 100.0).abs() < 0.5);
    }

    #[test]
    fn realistic_model_validates() {
        DeviceModel::realistic().validate().unwrap();
        assert!((DeviceModel::realistic().g_off() - 5.0).abs() < 1e-6);
    }
}
