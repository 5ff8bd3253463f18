//! Algorithm-based fault tolerance (ABFT) for crossbar execution.
//!
//! Every armed [`Tile`](crate::Tile) carries one **checksum column**: a
//! snapshot of the per-row sum of signed effective weights,
//! `w_chk[i] = Σ_j sign_j·w_eff[i][j]`. Because the digital column
//! polarity is applied before temporal accumulation, the clean readout
//! satisfies `Σ_j y_j = Σ_i x_i·w_chk[i]` exactly — so after every pulse
//! the engine can compare the sum of the digitized column outputs against
//! an independently read (and independently noisy) checksum output. The
//! comparison tolerance is derived analytically from the same variance
//! algebra the paper's Eqs. 2–4 use: each of the `J` regular columns and
//! the checksum column contributes `σ_out²` of functional read noise,
//! cycle-to-cycle noise contributes `(σ_c2c/(G_on−G_off))²·Σ_i x_i²(G⁺²+G⁻²)`
//! on both sides of the comparison, and an ADC adds `step²/12` of
//! quantization variance per converted column (iid-uniform model).
//!
//! On violation the engine walks a deterministic escalation ladder with
//! bounded budgets — up to two retries with fresh keyed noise, then the
//! [`GuardPolicy`]'s targeted refresh and march-test + remap rounds, then
//! the digital fallback — and every event is counted in
//! [`GuardStats`], which merges through
//! [`ExecutionStats`](crate::ExecutionStats).

use crate::noise::NoiseSpec;
use crate::remap::RecoveryPolicy;

/// Substream tag separating checksum-readout noise from the MVM noise
/// draws: guard draws come from
/// `base.substream(&[pulse, sample, row_tile, col_tile]).substream(&[TAG, attempt])`,
/// so arming a guard never perturbs the unguarded noise realizations.
pub(crate) const GUARD_STREAM_TAG: u64 = 0x4755_4152_445f_4348;
/// Substream tag for pulse re-executions (stage-1 retries).
pub(crate) const RETRY_STREAM_TAG: u64 = 0x4742_4f5f_5254_5259;

/// Detection threshold in standard deviations of the checksum
/// comparison statistic. The per-check false-positive probability is
/// roughly the two-sided Gaussian tail at `z`, at most
/// `√(2/π)·exp(−z²/2)/z`.
pub(crate) const GUARD_Z: f32 = 6.0;
/// Absolute tolerance floor added to the analytic term: covers f32
/// summation-order differences between `Σ_j y_j` and the checksum (the
/// two accumulate in different orders), the ≤1e-5 relative drift of the
/// incremental pulse-delta schedule, and ADC model tails.
pub(crate) const GUARD_MIN_TOLERANCE: f32 = 0.05;
/// Stage-1 budget: pulse re-executions per violating readout.
pub(crate) const GUARD_MAX_RETRIES: u64 = 2;

/// Configuration of checksum-guarded execution: the hardware-repair
/// budgets of the escalation ladder. Detection itself is fixed: a
/// readout violates when its checksum residual exceeds 6σ of the
/// analytic comparison statistic plus a 0.05 floor.
///
/// The ladder an engine walks when a tile's checksum violation survives
/// its in-place retries:
///
/// 1. **Retry** (inside the parallel workers, pure): re-execute the
///    offending pulse up to 2 times with fresh noise keyed by
///    `(pulse, sample, tile, attempt)`, accepting the first readout that
///    passes its own checksum.
/// 2. **Refresh** (`refresh_rounds` rounds): re-program the offending
///    tiles toward their stored targets. Cures drift; preserves the armed
///    checksum reference, so a persistent fault keeps violating.
/// 3. **Remap** (`remap_rounds` rounds): march-test + remap the offending
///    tiles with `remap`, then re-arm their checksums — the repaired
///    state, residual damage included, becomes the new reference and is
///    reported through the engine's [`RemapReport`](crate::RemapReport).
/// 4. **Fallback**: mark the engine degraded and serve the digital
///    `x·Wᵀ` reference output for this and every later execution.
///    Because stage 3 re-arms the checksum, a deployment with a remap
///    round reaches this stage only if a repaired tile still violates
///    against its own new reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardPolicy {
    /// Stage-2 budget: targeted-refresh rounds per guarded execution.
    pub refresh_rounds: u32,
    /// Stage-3 budget: march-test + remap rounds per guarded execution.
    pub remap_rounds: u32,
    /// Recovery policy used by stage 3.
    pub remap: RecoveryPolicy,
}

impl GuardPolicy {
    /// Standard guard: one refresh round, one remap round with the
    /// standard recovery policy.
    pub fn standard() -> Self {
        Self {
            refresh_rounds: 1,
            remap_rounds: 1,
            remap: RecoveryPolicy::standard(),
        }
    }

    /// Detection without hardware repair: retries only, then straight to
    /// the digital fallback. Useful to audit violation rates without
    /// mutating arrays.
    pub fn detect_only() -> Self {
        Self {
            refresh_rounds: 0,
            remap_rounds: 0,
            ..Self::standard()
        }
    }
}

impl Default for GuardPolicy {
    fn default() -> Self {
        Self::standard()
    }
}

/// The checksum comparison tolerance for one pulse readout of a tile
/// with `cols` regular columns: `6·√var + 0.05`.
///
/// `var_term` is `Σ_i x_i²·Σ_j (G⁺²+G⁻²)` over the tile — the
/// aggregated cycle-to-cycle variance numerator that
/// `Tile::checksum_pulse` returns alongside the checksum. `adc_step`
/// is the row-block ADC step when one is configured (`None` models an
/// ideal readout).
///
/// Variance budget: `cols` regular columns plus the checksum column
/// each carry `σ_out²` of functional noise and `step²/12` of
/// quantization variance; cycle-to-cycle noise contributes
/// `(σ_c2c/(G_on−G_off))²·var_term` on each side of the comparison.
///
/// Operating temperature needs no extra term: the engine resolves
/// the [`NonIdealitySpec`](crate::NonIdealitySpec) at program time
/// and stores the scaled noise model, so the `σ_out` and `σ_c2c`
/// passed here already carry the `√(T/T_REF)` thermal scaling — the
/// tolerance widens with temperature exactly as the physical spread
/// does, keeping the false-positive rate at its rated ~zero.
pub(crate) fn tolerance(
    noise: &NoiseSpec,
    cols: usize,
    var_term: f32,
    adc_step: Option<f32>,
) -> f32 {
    let k = cols as f32 + 1.0;
    let mut var = k * noise.output_sigma * noise.output_sigma;
    if noise.device.c2c_sigma > 0.0 {
        let denom = noise.device.g_on - noise.device.g_off();
        let s = noise.device.c2c_sigma / denom;
        var += 2.0 * s * s * var_term;
    }
    if let Some(step) = adc_step {
        var += k * step * step / 12.0;
    }
    GUARD_Z * var.sqrt() + GUARD_MIN_TOLERANCE
}

/// Telemetry counters of checksum-guarded execution. All fields are
/// integer event counts so the struct stays `Copy + Eq` inside
/// [`ExecutionStats`](crate::ExecutionStats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GuardStats {
    /// Checksum comparisons performed (one per pulse per sample per
    /// armed tile, plus one per retry).
    pub checks: u64,
    /// Comparisons that exceeded their tolerance.
    pub violations: u64,
    /// Pulse re-executions triggered by violations (stage 1).
    pub retries: u64,
    /// Retries whose fresh readout passed its checksum.
    pub retry_successes: u64,
    /// Targeted tile refreshes triggered by persistent violations
    /// (stage 2).
    pub tile_refreshes: u64,
    /// March-test + remap passes triggered on offending tiles (stage 3).
    pub tile_remaps: u64,
    /// Executions served by the digital fallback path (stage 4).
    pub fallbacks: u64,
    /// Digital SAF/ECC corrections applied to accepted readouts (one per
    /// driven correction entry per pulse per sample).
    pub saf_corrections: u64,
    /// Layers currently degraded to the digital fallback. Set-once
    /// deployment state, not a per-batch event: populated per evaluation,
    /// merged with max-semantics.
    pub degraded_layers: u64,
}

impl GuardStats {
    /// Accumulates another stats block. Event counters saturate instead
    /// of wrapping; `degraded_layers` describes the deployment (set once
    /// per evaluation) and takes the max.
    pub fn merge(&mut self, other: &GuardStats) {
        self.checks = self.checks.saturating_add(other.checks);
        self.violations = self.violations.saturating_add(other.violations);
        self.retries = self.retries.saturating_add(other.retries);
        self.retry_successes = self.retry_successes.saturating_add(other.retry_successes);
        self.tile_refreshes = self.tile_refreshes.saturating_add(other.tile_refreshes);
        self.tile_remaps = self.tile_remaps.saturating_add(other.tile_remaps);
        self.fallbacks = self.fallbacks.saturating_add(other.fallbacks);
        self.saf_corrections = self.saf_corrections.saturating_add(other.saf_corrections);
        self.degraded_layers = self.degraded_layers.max(other.degraded_layers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_policy_validates() {
        for policy in [GuardPolicy::standard(), GuardPolicy::detect_only()] {
            crate::XbarConfig::functional(0.1)
                .with_guard(policy)
                .validate()
                .unwrap();
        }
        assert_eq!(GuardPolicy::default(), GuardPolicy::standard());
    }

    #[test]
    fn tolerance_matches_variance_algebra() {
        // functional noise only: J+1 columns of σ² variance
        let noise = NoiseSpec::functional(0.5);
        let tol = tolerance(&noise, 3, 0.0, None);
        let expect = 6.0 * (4.0f32 * 0.25).sqrt() + 0.05;
        assert!((tol - expect).abs() < 1e-6, "{tol} vs {expect}");
        // ADC adds k·step²/12
        let tol_adc = tolerance(&noise, 3, 0.0, Some(0.6));
        let expect_adc = 6.0 * (4.0f32 * 0.25 + 4.0 * 0.36 / 12.0).sqrt() + 0.05;
        assert!((tol_adc - expect_adc).abs() < 1e-6);
        // zero noise leaves only the floor
        let quiet = tolerance(&NoiseSpec::none(), 8, 0.0, None);
        assert!((quiet - 0.05).abs() < 1e-7);
    }

    #[test]
    fn tolerance_includes_c2c_on_both_sides() {
        let mut noise = NoiseSpec::none();
        noise.device.c2c_sigma = 0.1;
        noise.device.on_off_ratio = f32::INFINITY;
        let denom = noise.device.g_on - noise.device.g_off();
        let var_term = 50.0f32;
        let tol = tolerance(&noise, 4, var_term, None);
        let s = 0.1 / denom;
        let expect = 6.0 * (2.0 * s * s * var_term).sqrt() + 0.05;
        assert!((tol - expect).abs() < 1e-6, "{tol} vs {expect}");
    }

    #[test]
    fn stats_merge_saturates_and_maxes() {
        let mut a = GuardStats {
            checks: u64::MAX - 1,
            violations: 2,
            retries: 3,
            retry_successes: 1,
            tile_refreshes: 1,
            tile_remaps: 1,
            fallbacks: 1,
            saf_corrections: 4,
            degraded_layers: 2,
        };
        let b = GuardStats {
            checks: 5,
            degraded_layers: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.checks, u64::MAX, "adds must saturate");
        assert_eq!(a.violations, 2);
        assert_eq!(a.degraded_layers, 2, "set-once field takes the max");
    }
}
