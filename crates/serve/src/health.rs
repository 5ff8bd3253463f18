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

use membit_tensor::TensorError;
use membit_xbar::ExecutionStats;

use crate::Result;

/// Thresholds of the degradation state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// EMA violation rate above which the deployment counts as degraded.
    pub degrade_violation_rate: f64,
    /// EMA violation rate above which admission sheds load.
    pub shed_violation_rate: f64,
    /// Demoted-layer count at which admission sheds load regardless of
    /// the violation EMA (the ladder is out of hardware remedies).
    pub shed_degraded_layers: u64,
    /// EMA smoothing factor in `(0, 1]`: weight of the newest batch.
    pub ema_alpha: f64,
    /// Weight of the synthetic clean history a fresh tracker starts
    /// with, in units of one EMA sample. Without it the first observed
    /// batch carries full weight, so a single unlucky guard storm on a
    /// brand-new shard would trip `Shedding` instantly; with weight `w`
    /// the reported EMA is the raw EMA shrunk by `1 + w·(1-α)^n` after
    /// `n` observations, which converges to the plain EMA as history
    /// accumulates. Zero restores the cold-start-naive behaviour.
    pub cold_start_weight: f64,
}

impl HealthPolicy {
    /// Defaults tuned for guarded deployments: degrade at a 2% EMA
    /// violation rate, shed at 20% or once 2 layers run on the fallback.
    pub fn standard() -> Self {
        Self {
            degrade_violation_rate: 0.02,
            shed_violation_rate: 0.2,
            shed_degraded_layers: 2,
            ema_alpha: 0.3,
            cold_start_weight: 2.0,
        }
    }

    /// Validates the thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] (wrapped) if the rates
    /// are not ordered `0 ≤ degrade ≤ shed` or `ema_alpha` leaves
    /// `(0, 1]`.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.degrade_violation_rate)
            || !(0.0..=1.0).contains(&self.shed_violation_rate)
            || self.degrade_violation_rate > self.shed_violation_rate
        {
            return Err(TensorError::InvalidArgument(
                "violation rates must satisfy 0 ≤ degrade ≤ shed ≤ 1".into(),
            )
            .into());
        }
        if !(self.ema_alpha > 0.0 && self.ema_alpha <= 1.0) {
            return Err(TensorError::InvalidArgument("ema_alpha must be in (0, 1]".into()).into());
        }
        if !(self.cold_start_weight >= 0.0 && self.cold_start_weight.is_finite()) {
            return Err(TensorError::InvalidArgument(
                "cold_start_weight must be finite and ≥ 0".into(),
            )
            .into());
        }
        Ok(())
    }
}

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

    fn decide(policy: &HealthPolicy, ema: f64, degraded_layers: u64) -> HealthState {
        if ema > policy.shed_violation_rate || degraded_layers >= policy.shed_degraded_layers {
            HealthState::Shedding
        } else if ema > policy.degrade_violation_rate || degraded_layers > 0 {
            HealthState::Degraded
        } else {
            HealthState::Healthy
        }
    }

    /// Folds one batch's guard outcome in and returns the new state.
    /// Unguarded batches (zero checks) observe a zero rate, so the EMA
    /// decays back toward healthy. The decision estimate is the raw EMA
    /// shrunk by the synthetic clean history
    /// (`HealthPolicy::cold_start_weight`), so one violation storm on a
    /// fresh tracker degrades but cannot instantly shed.
    pub fn observe(
        &mut self,
        policy: &HealthPolicy,
        stats: &ExecutionStats,
        degraded_layers: u64,
    ) -> HealthState {
        let rate = if stats.guard.checks == 0 {
            0.0
        } else {
            stats.guard.violations as f64 / stats.guard.checks as f64
        };
        self.raw += policy.ema_alpha * (rate - self.raw);
        self.samples = self.samples.saturating_add(1);
        let residual = policy.cold_start_weight
            * (1.0 - policy.ema_alpha).powi(self.samples.min(1_000) as i32);
        self.ema = self.raw / (1.0 + residual);
        self.state = Self::decide(policy, self.ema, degraded_layers);
        self.state
    }

    /// Forces the violation estimate to `ema` and recomputes the state —
    /// the deterministic health-degradation hook of the chaos harness
    /// (`serve::chaos`). Consumes no RNG and marks the history as warm,
    /// so the forced value takes full effect immediately.
    pub fn force(
        &mut self,
        policy: &HealthPolicy,
        ema: f64,
        degraded_layers: u64,
    ) -> HealthState {
        self.raw = ema;
        self.ema = ema;
        self.samples = 1_000;
        self.state = Self::decide(policy, ema, degraded_layers);
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
    fn policy_validation() {
        assert!(HealthPolicy::standard().validate().is_ok());
        let mut p = HealthPolicy::standard();
        p.degrade_violation_rate = 0.5;
        p.shed_violation_rate = 0.1;
        assert!(p.validate().is_err());
        let mut p = HealthPolicy::standard();
        p.ema_alpha = 0.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn violation_storm_degrades_then_sheds_then_recovers() {
        let policy = HealthPolicy::standard();
        let mut t = HealthTracker::new();
        assert_eq!(t.observe(&policy, &stats(100, 0), 0), HealthState::Healthy);
        // sustained 50% violation rate walks the EMA over both thresholds
        let mut saw_degraded = false;
        let mut state = HealthState::Healthy;
        for _ in 0..20 {
            state = t.observe(&policy, &stats(100, 50), 0);
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
            state = t.observe(&policy, &stats(100, 0), 0);
        }
        assert_eq!(state, HealthState::Healthy);
    }

    #[test]
    fn one_violation_storm_on_fresh_tracker_degrades_but_does_not_shed() {
        let policy = HealthPolicy::standard();
        let mut t = HealthTracker::new();
        // 100% violation rate on the very first observed batch: under
        // the naive EMA this lands at α = 0.3 > shed threshold 0.2 and
        // sheds instantly; the seeded history keeps it at Degraded
        let state = t.observe(&policy, &stats(100, 100), 0);
        assert_eq!(state, HealthState::Degraded);
        assert!(t.ema > policy.degrade_violation_rate);
        assert!(t.ema <= policy.shed_violation_rate);
        // a zero cold-start weight restores the naive behaviour
        let naive = HealthPolicy {
            cold_start_weight: 0.0,
            ..policy
        };
        let mut t = HealthTracker::new();
        assert_eq!(t.observe(&naive, &stats(100, 100), 0), HealthState::Shedding);
    }

    #[test]
    fn sustained_storm_still_sheds_despite_cold_start_seed() {
        let policy = HealthPolicy::standard();
        let mut t = HealthTracker::new();
        let mut state = HealthState::Healthy;
        for _ in 0..6 {
            state = t.observe(&policy, &stats(100, 100), 0);
        }
        assert_eq!(state, HealthState::Shedding);
    }

    #[test]
    fn forced_ema_is_deterministic_and_reversible() {
        let policy = HealthPolicy::standard();
        let mut t = HealthTracker::new();
        assert_eq!(t.force(&policy, 0.5, 0), HealthState::Shedding);
        assert_eq!(t.ema, 0.5);
        assert_eq!(t.force(&policy, 0.0, 0), HealthState::Healthy);
        // forced history counts as warm: the next clean batch decays
        // from the forced value, it is not re-shrunk
        t.force(&policy, 0.5, 0);
        let s = t.observe(&policy, &stats(100, 0), 0);
        assert_eq!(s, HealthState::Shedding, "0.5 decays to 0.35, still shedding");
    }

    #[test]
    fn demoted_layers_force_the_state() {
        let policy = HealthPolicy::standard();
        let mut t = HealthTracker::new();
        assert_eq!(t.observe(&policy, &stats(100, 0), 1), HealthState::Degraded);
        assert_eq!(
            t.observe(&policy, &stats(100, 0), policy.shed_degraded_layers),
            HealthState::Shedding
        );
    }

    #[test]
    fn unguarded_batches_decay_toward_healthy() {
        let policy = HealthPolicy::standard();
        let mut t = HealthTracker::new();
        for _ in 0..10 {
            t.observe(&policy, &stats(10, 10), 0);
        }
        assert_eq!(t.state(), HealthState::Shedding);
        for _ in 0..40 {
            t.observe(&policy, &stats(0, 0), 0);
        }
        assert_eq!(t.state(), HealthState::Healthy);
    }
}
