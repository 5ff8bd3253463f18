//! Fault remapping: composable recovery strategies applied to march-test
//! detections.
//!
//! The remapper never sees ground-truth cell health — it acts on the
//! [`FaultMap`] a read-back march test produced, so missed detections go
//! unrepaired and false positives waste repair budget, exactly as on real
//! hardware. Three strategies compose, cheapest first:
//!
//! 1. **Differential-pair polarity flip** — re-program a column with
//!    inverted targets and negate its output digitally. Free (no spare
//!    silicon), and moves every stuck cell's error to the opposite
//!    logical weight sign; a column whose faults all sit adverse to the
//!    current polarity is fully repaired.
//! 2. **Spare row/column redundancy** — route a faulty wordline or
//!    bitline pair to a spare physical line, within a configurable
//!    budget per remap pass. Spares carry the same iid fault rate as
//!    primary cells.
//! 3. **Write-verify escalation** — re-program remaining flagged pairs
//!    under a tightened [`WriteVerify`] policy (32 attempts, 2 %
//!    tolerance), charging the extra pulses to [`ProgramStats`]. This
//!    cures drifted or badly programmed *healthy* cells (including
//!    march-test false positives); genuinely stuck cells cannot verify.
//!
//! Whatever remains flagged after all three is reported as
//! *unrecoverable* — deployment degrades gracefully by surfacing the
//! counts in the execution stats rather than failing.

use membit_tensor::Rng;

use crate::device::DeviceModel;
use crate::fault::{CellFault, MARCH_THRESHOLD};
use crate::program::{ProgramStats, WriteVerify};
use crate::tile::Tile;
use crate::Result;

/// The escalated write-verify of the last analog stage: 2 % tolerance,
/// 32 attempts per pair.
const ESCALATION: WriteVerify = WriteVerify {
    tolerance: 0.02,
    max_attempts: 32,
};

/// Composable recovery configuration. The march test between stages (4
/// reads, 40 % threshold) and the escalated write-verify that closes the
/// analog ladder (2 % tolerance, 32 attempts) always run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Enable differential-pair polarity flips.
    pub flip_polarity: bool,
    /// Spare wordlines granted to each remap pass of a tile. The budget
    /// is not tracked per tile: every pass (deploy-time recovery,
    /// [`CrossbarLinear::remap`](crate::CrossbarLinear::remap), each
    /// guard stage-3 round) may use all of it again, and every spare is
    /// a fresh random line.
    pub spare_rows: usize,
    /// Spare bitline pairs granted to each remap pass of a tile, on the
    /// same terms as `spare_rows`.
    pub spare_cols: usize,
    /// Enable the digital SAF/ECC arm: after every analog strategy runs,
    /// build a per-tile correction table from the residual march
    /// read-backs ([`Tile::build_saf_correction`]) so the engine patches
    /// the remaining stuck-cell error out of each accepted readout.
    /// Residual cells stay counted as unrecoverable — the correction is
    /// digital compensation, not a hardware repair.
    pub saf_ecc: bool,
}

impl RecoveryPolicy {
    /// All strategies on: flips and 2+2 spares per remap pass.
    pub fn standard() -> Self {
        Self {
            flip_polarity: true,
            spare_rows: 2,
            spare_cols: 2,
            saf_ecc: false,
        }
    }

    /// [`standard`](Self::standard) plus the digital SAF/ECC arm.
    pub fn with_ecc() -> Self {
        Self {
            saf_ecc: true,
            ..Self::standard()
        }
    }
}

/// Outcome counters of remapping one or more tiles.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RemapReport {
    /// Tiles processed.
    pub tiles: u64,
    /// Faults flagged by the initial march test.
    pub faults_detected: u64,
    /// Columns whose polarity was flipped.
    pub columns_flipped: u64,
    /// Spare wordlines consumed.
    pub spare_rows_used: u64,
    /// Spare bitline pairs consumed.
    pub spare_cols_used: u64,
    /// Differential pairs put through escalated write-verify.
    pub cells_escalated: u64,
    /// Initially flagged cells no longer flagged after recovery.
    pub cells_recovered: u64,
    /// Cells still flagged after all strategies (graceful-degradation
    /// exposure).
    pub unrecoverable_cells: u64,
    /// Tiles left with at least one unrecoverable cell.
    pub degraded_tiles: u64,
    /// Differential pairs covered by installed SAF/ECC correction
    /// entries (digital compensation of otherwise unrecoverable cells).
    pub cells_corrected: u64,
    /// Write pulses charged by escalation.
    pub program: ProgramStats,
}

impl RemapReport {
    /// Accumulates another report.
    pub fn merge(&mut self, other: &RemapReport) {
        self.tiles += other.tiles;
        self.faults_detected += other.faults_detected;
        self.columns_flipped += other.columns_flipped;
        self.spare_rows_used += other.spare_rows_used;
        self.spare_cols_used += other.spare_cols_used;
        self.cells_escalated += other.cells_escalated;
        self.cells_recovered += other.cells_recovered;
        self.unrecoverable_cells += other.unrecoverable_cells;
        self.degraded_tiles += other.degraded_tiles;
        self.cells_corrected += other.cells_corrected;
        self.program.merge(&other.program);
    }
}

/// Whether flipping the column polarity would render this detected fault
/// harmless: the read-back estimate sits within the march threshold of
/// the *inverted* target level.
fn fixed_by_flip(f: &CellFault, device: &DeviceModel) -> bool {
    let window = device.g_on - device.g_off();
    let flipped_target = device.g_on + device.g_off() - f.g_target;
    (f.g_est - flipped_target).abs() <= MARCH_THRESHOLD * window
}

/// Runs the configured recovery strategies on one tile, mutating it in
/// place, and returns the outcome counters.
///
/// # Errors
///
/// Propagates the tile's repair errors, which the tile's own fault map
/// never triggers.
pub fn remap_tile(tile: &mut Tile, policy: &RecoveryPolicy, rng: &mut Rng) -> Result<RemapReport> {
    let mut report = RemapReport {
        tiles: 1,
        ..Default::default()
    };
    // any previously installed correction table describes a pre-repair
    // array; rebuilt below from the fresh residual when the arm is on
    tile.clear_saf_correction();
    let initial = tile.march_test(rng);
    report.faults_detected = initial.len() as u64;
    if initial.is_empty() {
        return Ok(report);
    }

    // Stage 1: spare wordlines for rows with clustered faults. A spare
    // replaces every cell of the row, so it pays off exactly where the
    // cheaper column-level strategies (which fix one fault each) don't.
    if policy.spare_rows > 0 {
        let mut by_count: Vec<(usize, usize)> = initial
            .row_counts()
            .into_iter()
            .enumerate()
            .filter(|&(_, n)| n >= 2)
            .collect();
        by_count.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for (row, _) in by_count.into_iter().take(policy.spare_rows) {
            tile.replace_row(row, rng)?;
            report.spare_rows_used += 1;
        }
    }

    // Stage 2: polarity flips, then spare bitline pairs for columns the
    // flip couldn't clean, then one more flip pass over the (fresh,
    // possibly faulty) spares.
    //
    // A flip is *trialed*: the column is re-programmed inverted and read
    // back, and reverted unless the fault count strictly drops. The fault
    // map alone cannot decide — a stuck cell currently sitting on its
    // target is invisible to read-back, yet turns adverse once the
    // column's targets invert (e.g. a pair with both cells pinned to the
    // same level always has exactly one adverse cell under either
    // polarity).
    let flip_stage = |tile: &mut Tile, report: &mut RemapReport, rng: &mut Rng| -> Result<()> {
        let map = tile.march_test(rng);
        let (_, cols) = tile.dims();
        for col in 0..cols {
            let harmful_now = map.in_col(col).count();
            if harmful_now == 0 {
                continue;
            }
            // a flip can only help when at least one detected fault sits
            // at the inverted target level; skip the trial otherwise
            // (drifted mid-band cells are a job for escalation)
            if !map.in_col(col).any(|f| fixed_by_flip(f, tile.device())) {
                continue;
            }
            tile.flip_column(col, rng)?;
            let harmful_flipped = tile.march_test_column(col, rng)?.len();
            if harmful_flipped < harmful_now {
                report.columns_flipped += 1;
            } else {
                tile.flip_column(col, rng)?; // revert the trial
            }
        }
        Ok(())
    };
    if policy.flip_polarity {
        flip_stage(tile, &mut report, rng)?;
    }
    if policy.spare_cols > 0 {
        let map = tile.march_test(rng);
        let mut by_count: Vec<(usize, usize)> = map
            .col_counts()
            .into_iter()
            .enumerate()
            .filter(|&(_, n)| n >= 1)
            .collect();
        by_count.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut replaced = false;
        for (col, _) in by_count.into_iter().take(policy.spare_cols) {
            tile.replace_col(col, rng)?;
            report.spare_cols_used += 1;
            replaced = true;
        }
        if replaced && policy.flip_polarity {
            flip_stage(tile, &mut report, rng)?;
        }
    }

    // Stage 3: escalated write-verify on whatever is still flagged —
    // cures drifted/badly-programmed healthy cells and march false
    // positives; stuck cells exhaust the budget.
    let map = tile.march_test(rng);
    let mut pairs: Vec<(usize, usize)> = map.faults().iter().map(|f| (f.row, f.col)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    for (row, col) in pairs {
        tile.reprogram_pair(row, col, &ESCALATION, rng, &mut report.program)?;
        report.cells_escalated += 1;
    }

    let residual = tile.march_test(rng);
    report.unrecoverable_cells = residual.len() as u64;
    report.degraded_tiles = u64::from(!residual.is_empty());
    report.cells_recovered = report
        .faults_detected
        .saturating_sub(report.unrecoverable_cells);
    if policy.saf_ecc && !residual.is_empty() {
        // the digital last rung: compensate whatever the analog ladder
        // could not cure. The residual still counts as unrecoverable —
        // ECC patches readouts, it does not repair hardware.
        let entries = tile.build_saf_correction(&residual);
        report.cells_corrected = entries.len() as u64;
        tile.set_saf_correction(entries);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceModel;
    use membit_tensor::Tensor;

    fn faulty_device(stuck_on: f32, stuck_off: f32) -> DeviceModel {
        let mut d = DeviceModel::ideal();
        d.on_off_ratio = 20.0;
        d.stuck_on_rate = stuck_on;
        d.stuck_off_rate = stuck_off;
        d
    }

    fn pm1(shape: &[usize], seed: u64) -> Tensor {
        let mut rng = Rng::from_seed(seed);
        Tensor::from_fn(shape, |_| if rng.coin(0.5) { 1.0 } else { -1.0 })
    }

    fn weight_error(tile: &Tile) -> f32 {
        let (rows, cols) = tile.dims();
        let mut err = 0.0f32;
        for r in 0..rows {
            for c in 0..cols {
                err += (tile.effective_weight(r, c) - tile.logical_weight(r, c)).abs();
            }
        }
        err
    }

    #[test]
    fn clean_tile_needs_no_recovery() {
        let mut rng = Rng::from_seed(0);
        let mut tile = Tile::program(&pm1(&[8, 8], 1), &faulty_device(0.0, 0.0), &mut rng).unwrap();
        let report = remap_tile(&mut tile, &RecoveryPolicy::standard(), &mut rng).unwrap();
        assert_eq!(report.faults_detected, 0);
        assert_eq!(report.unrecoverable_cells, 0);
        assert_eq!(report.degraded_tiles, 0);
        assert_eq!(weight_error(&tile), 0.0);
    }

    #[test]
    fn remap_reduces_stored_weight_error() {
        let mut rng = Rng::from_seed(2);
        let w = pm1(&[32, 32], 3);
        let device = faulty_device(0.01, 0.01);
        let mut tile = Tile::program(&w, &device, &mut rng).unwrap();
        let before = weight_error(&tile);
        assert!(before > 0.0, "fixture must contain harmful faults");
        let report = remap_tile(&mut tile, &RecoveryPolicy::standard(), &mut rng).unwrap();
        let after = weight_error(&tile);
        assert!(report.faults_detected > 0);
        assert!(
            after < before * 0.5,
            "remap should halve weight error: {before} → {after}"
        );
        assert!(report.cells_recovered > 0);
    }

    #[test]
    fn escalation_cures_drifted_cells() {
        // age the tile so every cell drifts out of the march window: the
        // escalated rewrite restores them without spares or flips
        let mut rng = Rng::from_seed(6);
        let w = pm1(&[6, 6], 7);
        let mut tile = Tile::program(&w, &faulty_device(0.0, 0.0), &mut rng).unwrap();
        tile.age(100_000.0, 0.08, 0.0, &mut rng).unwrap();
        let policy = RecoveryPolicy {
            flip_polarity: false,
            spare_rows: 0,
            spare_cols: 0,
            ..RecoveryPolicy::standard()
        };
        let report = remap_tile(&mut tile, &policy, &mut rng).unwrap();
        assert!(report.faults_detected > 0);
        assert!(report.cells_escalated > 0);
        assert_eq!(report.unrecoverable_cells, 0);
        assert!(report.program.write_pulses > 0);
        assert_eq!(weight_error(&tile), 0.0);
    }

    #[test]
    fn double_stuck_pairs_are_reported_unrecoverable() {
        // every cell stuck ON: each −1 weight's pair reads 0 either
        // polarity, spares re-draw equally stuck cells, escalation fails
        let mut rng = Rng::from_seed(8);
        let w = pm1(&[4, 4], 9);
        let mut tile = Tile::program(&w, &faulty_device(1.0, 0.0), &mut rng).unwrap();
        let report = remap_tile(&mut tile, &RecoveryPolicy::standard(), &mut rng).unwrap();
        assert!(report.faults_detected > 0);
        assert!(report.unrecoverable_cells > 0);
        assert_eq!(report.degraded_tiles, 1);
    }

    #[test]
    fn report_merges() {
        let mut a = RemapReport {
            tiles: 1,
            faults_detected: 4,
            columns_flipped: 1,
            spare_rows_used: 1,
            spare_cols_used: 0,
            cells_escalated: 2,
            cells_recovered: 3,
            unrecoverable_cells: 1,
            degraded_tiles: 1,
            cells_corrected: 1,
            program: ProgramStats {
                cells: 2,
                write_pulses: 9,
                failed_cells: 1,
            },
        };
        a.merge(&a.clone());
        assert_eq!(a.tiles, 2);
        assert_eq!(a.faults_detected, 8);
        assert_eq!(a.cells_recovered, 6);
        assert_eq!(a.cells_corrected, 2);
        assert_eq!(a.program.write_pulses, 18);
    }

    #[test]
    fn saf_ecc_compensates_double_stuck_pairs() {
        // every cell stuck ON: the analog ladder cannot cure the −1
        // weights (a pair pinned to one level reads 0 either polarity),
        // but the digital ECC arm rebuilds their contribution exactly
        let mut rng = Rng::from_seed(12);
        let w = pm1(&[4, 4], 13);
        let mut tile = Tile::program(&w, &faulty_device(1.0, 0.0), &mut rng).unwrap();
        let report = remap_tile(&mut tile, &RecoveryPolicy::with_ecc(), &mut rng).unwrap();
        assert!(
            report.unrecoverable_cells > 0,
            "fixture must defeat the ladder"
        );
        assert!(report.cells_corrected > 0);
        assert!(tile.has_saf_correction());
        // a corrected noise-free MVM reproduces the logical product
        let x = [1.0f32, -1.0, 1.0, -1.0];
        let mut out = [0.0f32; 4];
        tile.mvm(&x, &crate::NoiseSpec::none(), &mut rng, &mut out)
            .unwrap();
        tile.apply_saf_correction(&x, &mut out).unwrap();
        for (col, &got) in out.iter().enumerate() {
            let clean: f32 = (0..4)
                .map(|row| x[row] * tile.logical_weight(row, col))
                .sum();
            assert!(
                (got - clean).abs() < 1e-4,
                "col {col}: corrected {got} vs logical {clean}"
            );
        }
        // without the arm, standard() leaves the table empty
        let mut tile2 = Tile::program(&w, &faulty_device(1.0, 0.0), &mut rng).unwrap();
        remap_tile(&mut tile2, &RecoveryPolicy::standard(), &mut rng).unwrap();
        assert!(!tile2.has_saf_correction());
    }
}
