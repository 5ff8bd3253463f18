//! Fault detection: read-back march testing of programmed tiles and
//! in-service drift monitoring.
//!
//! A freshly programmed array is *march-tested*: every cell is read back
//! 4 times, the averaged conductance estimate is compared against the
//! level the cell was programmed toward, and cells deviating by more than
//! 40 % of the `G_on − G_off` window are flagged. Detection
//! is **imperfect by construction** — the estimate is corrupted by the
//! same cycle-to-cycle read noise inference suffers, so recall falls as
//! `c2c_sigma` grows and device-to-device tails produce false positives.
//! The [`FaultMap`] this yields is what the remapper
//! ([`crate::RecoveryPolicy`]) acts on: the recovery system only ever
//! sees *detected* faults, never ground truth.
//!
//! [`HealthMonitor`] covers the in-service half: periodically probing
//! deployed arrays for retention-drift decay and deciding when a
//! re-programming refresh is warranted.

use membit_tensor::TensorError;

use crate::Result;

/// Which cell of a differential pair a fault was detected in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellSide {
    /// The `G⁺` cell.
    Pos,
    /// The `G⁻` cell.
    Neg,
}

/// One detected cell fault: the read-back estimate disagreed with the
/// programmed target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellFault {
    /// Wordline index within the tile.
    pub row: usize,
    /// Bitline-pair index within the tile.
    pub col: usize,
    /// Which cell of the differential pair.
    pub side: CellSide,
    /// Conductance estimate from the march-test reads.
    pub g_est: f32,
    /// The level the cell was programmed toward.
    pub g_target: f32,
}

/// Repeated reads the march test averages per cell.
pub(crate) const MARCH_READS: usize = 4;
/// The march test flags a cell when `|ĝ − target|` exceeds this fraction
/// of the conductance window `G_on − G_off` (stuck cells deviate by
/// ~100 %).
pub(crate) const MARCH_THRESHOLD: f32 = 0.4;
/// Cells the health monitor samples per tile per check.
pub(crate) const HEALTH_PROBES: usize = 64;

/// The detected faults of one tile.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultMap {
    rows: usize,
    cols: usize,
    faults: Vec<CellFault>,
}

impl FaultMap {
    /// Builds a map over a `rows × cols` tile.
    pub fn new(rows: usize, cols: usize, faults: Vec<CellFault>) -> Self {
        Self { rows, cols, faults }
    }

    /// Tile dimensions `(rows, cols)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// All detected faults.
    pub fn faults(&self) -> &[CellFault] {
        &self.faults
    }

    /// Number of detected faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the tile tested clean.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Detected faults in column `col`.
    pub fn in_col(&self, col: usize) -> impl Iterator<Item = &CellFault> {
        self.faults.iter().filter(move |f| f.col == col)
    }

    /// Detected faults in row `row`.
    pub fn in_row(&self, row: usize) -> impl Iterator<Item = &CellFault> {
        self.faults.iter().filter(move |f| f.row == row)
    }

    /// Per-row fault counts (length `rows`).
    pub fn row_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.rows];
        for f in &self.faults {
            counts[f.row] += 1;
        }
        counts
    }

    /// Per-column fault counts (length `cols`).
    pub fn col_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.cols];
        for f in &self.faults {
            counts[f.col] += 1;
        }
        counts
    }
}

/// In-service drift monitor: decides when deployed arrays have decayed
/// far enough that a re-programming refresh pays off.
///
/// Retention drift shrinks every stored differential weight toward zero
/// (`G(t) = G₀(1+t)^{−ν}`); the monitor probes 64 cells per tile, compares
/// the mean effective-weight magnitude against the ideal `1.0`, and
/// triggers a refresh when the decay crosses `decay_threshold`. It only
/// decides: its caller counts inference vectors and runs the probes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthMonitor {
    /// Re-check deployed arrays every this many inference vectors.
    pub check_interval: u64,
    /// Refresh when the mean `|w_eff|` of probed cells falls below
    /// `1 − decay_threshold`.
    pub decay_threshold: f32,
}

impl HealthMonitor {
    /// Check every 128 vectors, refresh past 15 % decay.
    pub fn standard() -> Self {
        Self {
            check_interval: 128,
            decay_threshold: 0.15,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for a zero interval or a
    /// threshold outside `(0, 1)`.
    pub fn validate(&self) -> Result<()> {
        if self.check_interval == 0 {
            return Err(TensorError::InvalidArgument(
                "health monitor needs a nonzero check interval".into(),
            ));
        }
        if !(self.decay_threshold > 0.0 && self.decay_threshold < 1.0) {
            return Err(TensorError::InvalidArgument(format!(
                "decay_threshold must lie in (0, 1), got {}",
                self.decay_threshold
            )));
        }
        Ok(())
    }

    /// Whether `vectors_since_check` inference vectors warrant a probe.
    pub fn due(&self, vectors_since_check: u64) -> bool {
        vectors_since_check >= self.check_interval
    }

    /// Whether a measured mean `|w_eff|` calls for a refresh.
    pub fn needs_refresh(&self, mean_weight_magnitude: f32) -> bool {
        mean_weight_magnitude < 1.0 - self.decay_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_map_indexing() {
        let fault = |row, col, side| CellFault {
            row,
            col,
            side,
            g_est: 100.0,
            g_target: 5.0,
        };
        let map = FaultMap::new(
            4,
            3,
            vec![
                fault(0, 1, CellSide::Pos),
                fault(0, 2, CellSide::Neg),
                fault(3, 1, CellSide::Pos),
            ],
        );
        assert_eq!(map.dims(), (4, 3));
        assert_eq!(map.len(), 3);
        assert!(!map.is_empty());
        assert_eq!(map.in_col(1).count(), 2);
        assert_eq!(map.in_row(0).count(), 2);
        assert_eq!(map.row_counts(), vec![2, 0, 0, 1]);
        assert_eq!(map.col_counts(), vec![0, 2, 1]);
    }

    #[test]
    fn monitor_validation_and_decisions() {
        let m = HealthMonitor::standard();
        m.validate().unwrap();
        assert!(!m.due(0));
        assert!(m.due(128));
        assert!(!m.needs_refresh(0.99));
        assert!(m.needs_refresh(0.5));
        assert!(HealthMonitor {
            check_interval: 0,
            ..m
        }
        .validate()
        .is_err());
        assert!(HealthMonitor {
            decay_threshold: 1.0,
            ..m
        }
        .validate()
        .is_err());
    }
}
