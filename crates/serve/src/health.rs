//! Health-aware graceful degradation.
//!
//! The serving loop watches two signals after every batch: the guard's
//! checksum violation rate (violations per check, smoothed with an EMA)
//! and the number of layers the escalation ladder has demoted to the
//! digital fallback. Crossing the lower threshold marks the deployment
//! [`Degraded`](HealthState::Degraded) — it keeps serving (the engines
//! already route around the damage) but the state is surfaced in
//! telemetry; crossing the upper threshold flips admission to
//! [`Shedding`](HealthState::Shedding), rejecting new work with the
//! typed [`ServeError::Shed`](crate::ServeError::Shed) until the EMA
//! recovers. The tracker is pure arithmetic over batch stats, so live
//! serving and replay walk the identical state sequence.

use membit_xbar::ExecutionStats;

/// EMA violation rate above which the deployment counts as degraded.
const DEGRADE_VIOLATION_RATE: f64 = 0.02;
/// EMA violation rate above which admission sheds load.
const SHED_VIOLATION_RATE: f64 = 0.2;
/// Demoted-layer count at which admission sheds load regardless of the
/// violation EMA (the ladder is out of hardware remedies).
const SHED_DEGRADED_LAYERS: u64 = 2;
/// EMA smoothing factor: weight of the newest batch.
const EMA_ALPHA: f64 = 0.3;
/// Weight of the synthetic clean history a fresh tracker starts with, in
/// units of one EMA sample. Without it the first observed batch carries
/// full weight, so a single unlucky guard storm on a brand-new shard
/// would trip `Shedding` instantly; with weight `w` the reported EMA is
/// the raw EMA shrunk by `1 + w·(1-α)^n` after `n` observations, which
/// converges to the plain EMA as history accumulates.
const COLD_START_WEIGHT: f64 = 2.0;

/// The serving loop's view of deployment health.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Violation EMA below the degrade threshold; full service.
    Healthy,
    /// Elevated violation EMA or demoted layers: still serving (engines
    /// absorb the damage via the ladder / digital fallback), surfaced in
    /// telemetry.
    Degraded,
    /// Admission closed: new submissions are rejected with
    /// [`ServeError::Shed`](crate::ServeError::Shed).
    Shedding,
}

/// EMA tracker driving [`HealthState`]. Deterministic: state depends
/// only on the sequence of observed batch stats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthTracker {
    /// Plain EMA over observed violation rates.
    raw: f64,
    /// Cold-start-debiased estimate (what decisions are made on).
    ema: f64,
    /// Observations folded in so far (saturating).
    samples: u32,
    state: HealthState,
}

impl HealthTracker {
    /// A fresh tracker: healthy, zero violation history.
    pub fn new() -> Self {
        Self {
            raw: 0.0,
            ema: 0.0,
            samples: 0,
            state: HealthState::Healthy,
        }
    }

    /// Current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    fn decide(ema: f64, degraded_layers: u64) -> HealthState {
        if ema > SHED_VIOLATION_RATE || degraded_layers >= SHED_DEGRADED_LAYERS {
            HealthState::Shedding
        } else if ema > DEGRADE_VIOLATION_RATE || degraded_layers > 0 {
            HealthState::Degraded
        } else {
            HealthState::Healthy
        }
    }

    /// Folds one batch's guard outcome in and returns the new state.
    /// Unguarded batches (zero checks) observe a zero rate, so the EMA
    /// decays back toward healthy. The decision estimate is the raw EMA
    /// shrunk by the synthetic clean history (`COLD_START_WEIGHT`), so
    /// one violation storm on a fresh tracker degrades but cannot
    /// instantly shed.
    pub fn observe(&mut self, stats: &ExecutionStats, degraded_layers: u64) -> HealthState {
        let rate = if stats.guard.checks == 0 {
            0.0
        } else {
            stats.guard.violations as f64 / stats.guard.checks as f64
        };
        self.raw += EMA_ALPHA * (rate - self.raw);
        self.samples = self.samples.saturating_add(1);
        let residual = COLD_START_WEIGHT * (1.0 - EMA_ALPHA).powi(self.samples.min(1_000) as i32);
        self.ema = self.raw / (1.0 + residual);
        self.state = Self::decide(self.ema, degraded_layers);
        self.state
    }

    /// Forces the violation estimate to `ema` and recomputes the state —
    /// the deterministic health-degradation hook of the chaos harness
    /// (`serve::chaos`). Consumes no RNG and marks the history as warm,
    /// so the forced value takes full effect immediately.
    pub fn force(&mut self, ema: f64, degraded_layers: u64) -> HealthState {
        self.raw = ema;
        self.ema = ema;
        self.samples = 1_000;
        self.state = Self::decide(ema, degraded_layers);
        self.state
    }
}

impl Default for HealthTracker {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use membit_xbar::GuardStats;

    fn stats(checks: u64, violations: u64) -> ExecutionStats {
        ExecutionStats {
            guard: GuardStats {
                checks,
                violations,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn violation_storm_degrades_then_sheds_then_recovers() {
        let mut t = HealthTracker::new();
        assert_eq!(t.observe(&stats(100, 0), 0), HealthState::Healthy);
        // sustained 50% violation rate walks the EMA over both thresholds
        let mut saw_degraded = false;
        let mut state = HealthState::Healthy;
        for _ in 0..20 {
            state = t.observe(&stats(100, 50), 0);
            if state == HealthState::Degraded {
                saw_degraded = true;
            }
            if state == HealthState::Shedding {
                break;
            }
        }
        assert!(saw_degraded, "must pass through Degraded on the way up");
        assert_eq!(state, HealthState::Shedding);
        // clean batches decay the EMA back below both thresholds
        for _ in 0..40 {
            state = t.observe(&stats(100, 0), 0);
        }
        assert_eq!(state, HealthState::Healthy);
    }

    #[test]
    fn one_violation_storm_on_fresh_tracker_degrades_but_does_not_shed() {
        let mut t = HealthTracker::new();
        // 100% violation rate on the very first observed batch: under
        // the naive EMA this lands at α = 0.3 > shed threshold 0.2 and
        // sheds instantly; the seeded history keeps it at Degraded
        let state = t.observe(&stats(100, 100), 0);
        assert_eq!(state, HealthState::Degraded);
        assert!(t.ema > DEGRADE_VIOLATION_RATE);
        assert!(t.ema <= SHED_VIOLATION_RATE);
        // the raw EMA, without the cold-start history, would have shed
        assert_eq!(t.raw, EMA_ALPHA);
        assert_eq!(HealthTracker::decide(t.raw, 0), HealthState::Shedding);
    }

    #[test]
    fn sustained_storm_still_sheds_despite_cold_start_seed() {
        let mut t = HealthTracker::new();
        let mut state = HealthState::Healthy;
        for _ in 0..6 {
            state = t.observe(&stats(100, 100), 0);
        }
        assert_eq!(state, HealthState::Shedding);
    }

    #[test]
    fn forced_ema_is_deterministic_and_reversible() {
        let mut t = HealthTracker::new();
        assert_eq!(t.force(0.5, 0), HealthState::Shedding);
        assert_eq!(t.ema, 0.5);
        assert_eq!(t.force(0.0, 0), HealthState::Healthy);
        // forced history counts as warm: the next clean batch decays
        // from the forced value, it is not re-shrunk
        t.force(0.5, 0);
        let s = t.observe(&stats(100, 0), 0);
        assert_eq!(
            s,
            HealthState::Shedding,
            "0.5 decays to 0.35, still shedding"
        );
    }

    #[test]
    fn demoted_layers_force_the_state() {
        let mut t = HealthTracker::new();
        assert_eq!(t.observe(&stats(100, 0), 1), HealthState::Degraded);
        assert_eq!(
            t.observe(&stats(100, 0), SHED_DEGRADED_LAYERS),
            HealthState::Shedding
        );
    }

    #[test]
    fn unguarded_batches_decay_toward_healthy() {
        let mut t = HealthTracker::new();
        for _ in 0..10 {
            t.observe(&stats(10, 10), 0);
        }
        assert_eq!(t.state(), HealthState::Shedding);
        for _ in 0..40 {
            t.observe(&stats(0, 0), 0);
        }
        assert_eq!(t.state(), HealthState::Healthy);
    }
}
