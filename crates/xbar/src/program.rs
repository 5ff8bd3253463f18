//! Program-and-verify: the iterative write scheme real NVM arrays use.
//!
//! A single programming pulse lands the cell conductance within the
//! device-to-device variation band; production flows therefore *verify*
//! (read back) and re-program until the conductance sits within a
//! tolerance of the target, up to a retry budget. Tighter tolerances buy
//! accuracy at the cost of write energy and endurance — a trade-off the
//! [`ProgramStats`] counters expose.

use membit_tensor::{Rng, TensorError};

use crate::device::{CellHealth, DeviceModel};
use crate::Result;

/// Write-with-verify policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteVerify {
    /// Accept when `|G − target| ≤ tolerance·target`.
    pub tolerance: f32,
    /// Maximum programming attempts per cell (≥ 1).
    pub max_attempts: u32,
}

impl WriteVerify {
    /// A typical production policy: 5 % tolerance, up to 8 attempts.
    pub fn standard() -> Self {
        Self {
            tolerance: 0.05,
            max_attempts: 8,
        }
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for a non-positive
    /// tolerance or a zero attempt budget.
    pub fn validate(&self) -> Result<()> {
        if self.tolerance <= 0.0 || self.tolerance.is_nan() {
            return Err(TensorError::InvalidArgument(format!(
                "write-verify tolerance must be positive, got {}",
                self.tolerance
            )));
        }
        if self.max_attempts == 0 {
            return Err(TensorError::InvalidArgument(
                "write-verify needs at least one attempt".into(),
            ));
        }
        Ok(())
    }
}

/// Counters from programming an array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramStats {
    /// Cells programmed.
    pub cells: u64,
    /// Total write pulses issued (≥ `cells`; endurance consumption).
    pub write_pulses: u64,
    /// Cells that never reached tolerance (stuck or out-of-band).
    pub failed_cells: u64,
}

impl ProgramStats {
    /// Average write pulses per cell.
    pub fn writes_per_cell(&self) -> f64 {
        if self.cells == 0 {
            0.0
        } else {
            self.write_pulses as f64 / self.cells as f64
        }
    }

    /// Accumulates another stats block.
    pub fn merge(&mut self, other: &ProgramStats) {
        self.cells += other.cells;
        self.write_pulses += other.write_pulses;
        self.failed_cells += other.failed_cells;
    }
}

/// Programs one cell toward state `on` under `policy`, returning the
/// final conductance and updating `stats`.
///
/// The cell's stuck fate is drawn once up front; see
/// [`program_cell_verified_with_health`] for the variant tile code uses
/// when the health is already known.
pub fn program_cell_verified(
    device: &DeviceModel,
    on: bool,
    policy: &WriteVerify,
    rng: &mut Rng,
    stats: &mut ProgramStats,
) -> f32 {
    let health = device.sample_health(rng);
    program_cell_verified_with_health(device, health, on, policy, rng, stats)
}

/// Programs one cell of known persistent `health` toward state `on`
/// under `policy`.
///
/// Each attempt is an independent draw of the programming variation on
/// top of the level the cell physically reaches; a stuck cell whose
/// pinned level disagrees with the target either lands inside tolerance
/// by luck or exhausts the budget and counts as failed.
pub fn program_cell_verified_with_health(
    device: &DeviceModel,
    health: CellHealth,
    on: bool,
    policy: &WriteVerify,
    rng: &mut Rng,
    stats: &mut ProgramStats,
) -> f32 {
    let target = if on { device.g_on } else { device.g_off() };
    stats.cells += 1;
    let mut g = target;
    for attempt in 1..=policy.max_attempts {
        g = device.program_cell_with_health(health, on, rng);
        stats.write_pulses += 1;
        if (g - target).abs() <= policy.tolerance * target {
            return g;
        }
        if attempt == policy.max_attempts {
            stats.failed_cells += 1;
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_validation() {
        WriteVerify::standard().validate().unwrap();
        assert!(WriteVerify {
            tolerance: 0.0,
            max_attempts: 4
        }
        .validate()
        .is_err());
        assert!(WriteVerify {
            tolerance: 0.05,
            max_attempts: 0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn ideal_device_programs_first_try() {
        let device = DeviceModel::ideal();
        let mut rng = Rng::from_seed(0);
        let mut stats = ProgramStats::default();
        let g = program_cell_verified(
            &device,
            true,
            &WriteVerify::standard(),
            &mut rng,
            &mut stats,
        );
        assert_eq!(g, device.g_on);
        assert_eq!(stats.write_pulses, 1);
        assert_eq!(stats.failed_cells, 0);
        assert_eq!(stats.writes_per_cell(), 1.0);
    }

    #[test]
    fn verify_tightens_conductance_under_variation() {
        let mut device = DeviceModel::ideal();
        device.d2d_sigma = 0.15; // wide programming band
        let policy = WriteVerify {
            tolerance: 0.03,
            max_attempts: 50,
        };
        let mut rng = Rng::from_seed(1);
        let mut stats = ProgramStats::default();
        let mut worst: f32 = 0.0;
        for _ in 0..300 {
            let g = program_cell_verified(&device, true, &policy, &mut rng, &mut stats);
            worst = worst.max((g - device.g_on).abs() / device.g_on);
        }
        assert!(worst <= 0.03 + 1e-5, "worst deviation {worst}");
        // variation forces retries: strictly more pulses than cells
        assert!(stats.write_pulses > stats.cells);
        assert_eq!(stats.failed_cells, 0);
    }

    #[test]
    fn stuck_cells_exhaust_budget_and_count_failed() {
        let mut device = DeviceModel::ideal();
        device.stuck_on_rate = 1.0; // every cell pinned to G_on
        let policy = WriteVerify {
            tolerance: 0.01,
            max_attempts: 4,
        };
        let mut rng = Rng::from_seed(2);
        let mut stats = ProgramStats::default();
        // targeting the OFF state can never verify
        program_cell_verified(&device, false, &policy, &mut rng, &mut stats);
        assert_eq!(stats.write_pulses, 4);
        assert_eq!(stats.failed_cells, 1);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ProgramStats {
            cells: 2,
            write_pulses: 5,
            failed_cells: 1,
        };
        a.merge(&a.clone());
        assert_eq!(a.cells, 4);
        assert_eq!(a.write_pulses, 10);
        assert_eq!(a.failed_cells, 2);
        assert_eq!(ProgramStats::default().writes_per_cell(), 0.0);
    }
}
