//! Result rows and table/CSV rendering for the paper's tables.

use std::fmt::Write as _;

/// One row of the Table I reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Method label (`Baseline`, `PLA_10`, `GBO (~PLA10)`, ...).
    pub method: String,
    /// Paper-σ noise level.
    pub sigma: f32,
    /// Per-layer pulse counts.
    pub pulses: Vec<usize>,
    /// Average pulse count.
    pub avg_pulses: f32,
    /// Classification accuracy in percent.
    pub accuracy: f32,
}

impl Table1Row {
    /// Formats the per-layer pulse list like the paper: `[8, 8, …]`.
    pub fn pulses_string(&self) -> String {
        let items: Vec<String> = self.pulses.iter().map(ToString::to_string).collect();
        format!("[{}]", items.join(", "))
    }
}

/// One row of the Table II reproduction (accuracy / avg pulses at each σ).
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Method label (`Baseline`, `NIA`, `GBO`, `NIA + GBO`, `NIA + PLA`).
    pub method: String,
    /// `(accuracy %, avg pulses)` per σ column.
    pub cells: Vec<(f32, f32)>,
}

/// One row of the fault-tolerance ablation: accuracy and recovery
/// outcome of a deployment at one stuck-fault rate under one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultAblationRow {
    /// Deployment policy label (`none`, `remap`, `remap+refresh`).
    pub policy: String,
    /// Per-polarity stuck-cell probability (applied to both stuck-ON and
    /// stuck-OFF).
    pub stuck_rate: f32,
    /// Classification accuracy in percent.
    pub accuracy: f32,
    /// Faults the march test detected across all engines.
    pub faults_detected: u64,
    /// Detected cells brought back within tolerance.
    pub cells_recovered: u64,
    /// Cells still faulty after the full recovery pipeline.
    pub unrecoverable_cells: u64,
    /// Tiles deployed with at least one unrecoverable cell.
    pub degraded_tiles: u64,
    /// Drift refreshes triggered during evaluation.
    pub refreshes: u64,
}

/// One row of the guarded-execution ablation: accuracy and guard
/// telemetry of a deployment at one transient-fault rate / noise level
/// under one execution mode.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardAblationRow {
    /// Execution mode label (`clean`, `unguarded`, `guarded`).
    pub mode: String,
    /// Per-cell transient stuck-fault rate injected mid-inference.
    pub fault_rate: f32,
    /// Paper-σ noise level of the deployment.
    pub sigma: f32,
    /// Classification accuracy in percent.
    pub accuracy: f32,
    /// Checksum comparisons performed.
    pub checks: u64,
    /// Checksum violations detected (initial detections + failed
    /// retries).
    pub violations: u64,
    /// Stage-1 pulse re-executions.
    pub retries: u64,
    /// Retries whose fresh readout passed.
    pub retry_successes: u64,
    /// Stage-2 targeted tile refreshes.
    pub tile_refreshes: u64,
    /// Stage-3 march-test + remap repairs.
    pub tile_remaps: u64,
    /// Stage-4 digital-fallback demotions.
    pub fallbacks: u64,
    /// Layers serving the digital fallback after this run.
    pub degraded_layers: u64,
}

impl GuardAblationRow {
    /// CSV header matching [`GuardAblationRow::to_record`].
    pub const CSV_HEADER: [&'static str; 12] = [
        "mode",
        "fault_rate",
        "sigma",
        "accuracy_pct",
        "checks",
        "violations",
        "retries",
        "retry_successes",
        "tile_refreshes",
        "tile_remaps",
        "fallbacks",
        "degraded_layers",
    ];

    /// Renders the row as CSV fields in [`Self::CSV_HEADER`] order.
    pub fn to_record(&self) -> Vec<String> {
        vec![
            self.mode.clone(),
            format!("{}", self.fault_rate),
            format!("{}", self.sigma),
            format!("{:.2}", self.accuracy),
            self.checks.to_string(),
            self.violations.to_string(),
            self.retries.to_string(),
            self.retry_successes.to_string(),
            self.tile_refreshes.to_string(),
            self.tile_remaps.to_string(),
            self.fallbacks.to_string(),
            self.degraded_layers.to_string(),
        ]
    }

    /// Builds a row from guard telemetry.
    pub fn from_stats(
        mode: impl Into<String>,
        fault_rate: f32,
        sigma: f32,
        accuracy: f32,
        guard: &membit_xbar::GuardStats,
    ) -> Self {
        Self {
            mode: mode.into(),
            fault_rate,
            sigma,
            accuracy,
            checks: guard.checks,
            violations: guard.violations,
            retries: guard.retries,
            retry_successes: guard.retry_successes,
            tile_refreshes: guard.tile_refreshes,
            tile_remaps: guard.tile_remaps,
            fallbacks: guard.fallbacks,
            degraded_layers: guard.degraded_layers,
        }
    }
}

/// One row of the physical non-ideality ablation: accuracy and recovery
/// telemetry of a deployment under one (scenario, mitigation) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct NonIdealAblationRow {
    /// Scenario label (`baseline`, `ir_drop`, `hot`, `saf`, `combined`).
    pub scenario: String,
    /// Mitigation stack label (`none`, `guard`, `full`).
    pub mitigation: String,
    /// Operating temperature of the scenario in kelvin.
    pub temperature_k: f32,
    /// Classification accuracy in percent.
    pub accuracy: f32,
    /// Checksum comparisons performed.
    pub checks: u64,
    /// Checksum violations detected.
    pub violations: u64,
    /// Stage-2 targeted tile refreshes.
    pub tile_refreshes: u64,
    /// Stage-3 march-test + remap repairs.
    pub tile_remaps: u64,
    /// Stage-4 digital-fallback demotions.
    pub fallbacks: u64,
    /// Digital SAF error corrections applied during execution.
    pub saf_corrections: u64,
    /// Unrecoverable cells carrying an ECC correction entry.
    pub cells_corrected: u64,
    /// Cells still faulty after the full recovery pipeline.
    pub unrecoverable_cells: u64,
}

impl NonIdealAblationRow {
    /// CSV header matching [`NonIdealAblationRow::to_record`].
    pub const CSV_HEADER: [&'static str; 12] = [
        "scenario",
        "mitigation",
        "temperature_k",
        "accuracy_pct",
        "checks",
        "violations",
        "tile_refreshes",
        "tile_remaps",
        "fallbacks",
        "saf_corrections",
        "cells_corrected",
        "unrecoverable_cells",
    ];

    /// Renders the row as CSV fields in [`Self::CSV_HEADER`] order.
    pub fn to_record(&self) -> Vec<String> {
        vec![
            self.scenario.clone(),
            self.mitigation.clone(),
            format!("{}", self.temperature_k),
            format!("{:.2}", self.accuracy),
            self.checks.to_string(),
            self.violations.to_string(),
            self.tile_refreshes.to_string(),
            self.tile_remaps.to_string(),
            self.fallbacks.to_string(),
            self.saf_corrections.to_string(),
            self.cells_corrected.to_string(),
            self.unrecoverable_cells.to_string(),
        ]
    }

    /// Builds a row from guard telemetry plus the recovery outcome.
    pub fn from_stats(
        scenario: impl Into<String>,
        mitigation: impl Into<String>,
        temperature_k: f32,
        accuracy: f32,
        stats: &membit_xbar::ExecutionStats,
        cells_corrected: u64,
    ) -> Self {
        Self {
            scenario: scenario.into(),
            mitigation: mitigation.into(),
            temperature_k,
            accuracy,
            checks: stats.guard.checks,
            violations: stats.guard.violations,
            tile_refreshes: stats.guard.tile_refreshes,
            tile_remaps: stats.guard.tile_remaps,
            fallbacks: stats.guard.fallbacks,
            saf_corrections: stats.guard.saf_corrections,
            cells_corrected,
            unrecoverable_cells: stats.unrecoverable_cells,
        }
    }
}

impl FaultAblationRow {
    /// CSV header matching [`FaultAblationRow::to_record`].
    pub const CSV_HEADER: [&'static str; 8] = [
        "policy",
        "stuck_rate",
        "accuracy_pct",
        "faults_detected",
        "cells_recovered",
        "unrecoverable_cells",
        "degraded_tiles",
        "refreshes",
    ];

    /// Renders the row as CSV fields in [`Self::CSV_HEADER`] order.
    pub fn to_record(&self) -> Vec<String> {
        vec![
            self.policy.clone(),
            format!("{}", self.stuck_rate),
            format!("{:.2}", self.accuracy),
            self.faults_detected.to_string(),
            self.cells_recovered.to_string(),
            self.unrecoverable_cells.to_string(),
            self.degraded_tiles.to_string(),
            self.refreshes.to_string(),
        ]
    }
}

/// Renders rows as CSV (comma-separated, quoted only when needed), one
/// line per row after the header.
pub fn to_csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let quote = |s: &str| {
        if s.contains(',') || s.contains('"') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}",
        header.iter().map(|h| quote(h)).collect::<Vec<_>>().join(",")
    );
    for row in rows {
        let _ = writeln!(
            out,
            "{}",
            row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(",")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_row_formats_pulses() {
        let row = Table1Row {
            method: "Baseline".into(),
            sigma: 10.0,
            pulses: vec![8; 3],
            avg_pulses: 8.0,
            accuracy: 83.94,
        };
        assert_eq!(row.pulses_string(), "[8, 8, 8]");
    }

    #[test]
    fn fault_row_record_matches_header() {
        let row = FaultAblationRow {
            policy: "remap+refresh".into(),
            stuck_rate: 0.01,
            accuracy: 71.25,
            faults_detected: 42,
            cells_recovered: 40,
            unrecoverable_cells: 2,
            degraded_tiles: 1,
            refreshes: 3,
        };
        let rec = row.to_record();
        assert_eq!(rec.len(), FaultAblationRow::CSV_HEADER.len());
        assert_eq!(rec[0], "remap+refresh");
        assert_eq!(rec[2], "71.25");
    }

    #[test]
    fn guard_row_record_matches_header() {
        let guard = membit_xbar::GuardStats {
            checks: 1000,
            violations: 12,
            retries: 24,
            retry_successes: 6,
            tile_refreshes: 3,
            tile_remaps: 2,
            fallbacks: 1,
            saf_corrections: 0,
            degraded_layers: 1,
        };
        let row = GuardAblationRow::from_stats("guarded", 0.01, 0.1, 68.5, &guard);
        let rec = row.to_record();
        assert_eq!(rec.len(), GuardAblationRow::CSV_HEADER.len());
        assert_eq!(rec[0], "guarded");
        assert_eq!(rec[4], "1000");
        assert_eq!(rec[11], "1");
    }

    #[test]
    fn nonideal_row_record_matches_header() {
        let stats = membit_xbar::ExecutionStats {
            unrecoverable_cells: 4,
            guard: membit_xbar::GuardStats {
                checks: 200,
                violations: 3,
                retries: 6,
                retry_successes: 2,
                tile_refreshes: 1,
                tile_remaps: 1,
                fallbacks: 0,
                saf_corrections: 57,
                degraded_layers: 0,
            },
            ..Default::default()
        };
        let row =
            NonIdealAblationRow::from_stats("saf", "full", 300.0, 74.5, &stats, 4);
        let rec = row.to_record();
        assert_eq!(rec.len(), NonIdealAblationRow::CSV_HEADER.len());
        assert_eq!(rec[0], "saf");
        assert_eq!(rec[1], "full");
        assert_eq!(rec[9], "57");
        assert_eq!(rec[10], "4");
        assert_eq!(rec[11], "4");
    }

    #[test]
    fn csv_roundtrip_with_quoting() {
        let text = to_csv(&["x", "list"], &[vec!["1".into(), "[8, 8]".into()]]);
        assert_eq!(text, "x,list\n1,\"[8, 8]\"\n");
    }
}
