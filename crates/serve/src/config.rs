//! Serving-loop configuration: queue bounds, batching, deadlines,
//! retries, and health thresholds.

use membit_tensor::TensorError;
use membit_xbar::EnergyModel;

use crate::clock::ClockMode;
use crate::health::HealthPolicy;
use crate::Result;

/// Serving-level retry policy, layered *above* the engine's guard
/// escalation ladder: a batch whose execution returns an error (not a
/// guard violation — those the ladder already absorbed) is re-executed
/// up to `max_retries` times, each attempt charging an exponentially
/// growing backoff to the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Re-execution attempts after the first failure.
    pub max_retries: u32,
    /// Virtual-time penalty charged before the first retry (ns).
    pub backoff_ns: u64,
    /// Multiplier applied to the backoff per subsequent retry.
    pub backoff_factor: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 2,
            backoff_ns: 1_000,
            backoff_factor: 2,
        }
    }
}

impl RetryPolicy {
    /// Backoff charged before retry `attempt` (1-based), in ns.
    pub fn backoff_for(&self, attempt: u32) -> u64 {
        let factor = u64::from(self.backoff_factor).max(1);
        self.backoff_ns
            .saturating_mul(factor.saturating_pow(attempt.saturating_sub(1)))
    }
}

/// Configuration of one serving deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Bounded queue capacity; submissions beyond it are rejected with
    /// [`ServeError::QueueFull`](crate::ServeError::QueueFull).
    pub queue_capacity: usize,
    /// Maximum requests packed into one engine batch.
    pub max_batch: usize,
    /// Sample-block granularity of the engine's parallel partitioning
    /// (see `ExecOptions::samples_per_thread`). When more requests wait
    /// than fit a batch, the batch is rounded down to a multiple of this
    /// so full blocks land on worker threads; a final partial batch is
    /// always allowed so no request waits forever.
    pub block_align: usize,
    /// Deadline budget granted to a request on admission (virtual ns).
    pub default_deadline_ns: u64,
    /// Serving-level retry/backoff above the guard ladder.
    pub retry: RetryPolicy,
    /// Health thresholds for degradation and shedding.
    pub health: HealthPolicy,
    /// First-order latency/energy model that drives the virtual clock.
    pub energy: EnergyModel,
    /// Which clock deadlines expire on: the virtual timeline (default,
    /// deterministic, required by `simulate_shards`) or real elapsed time
    /// (threaded servers; see [`crate::clock`]). Replay always follows
    /// the logged virtual timeline, so this never affects response bits.
    pub clock: ClockMode,
    /// Seed of the serving RNG (chaos injections + model noise). With
    /// the request log this fully determines every response bit.
    pub seed: u64,
}

impl ServeConfig {
    /// A small-deployment default: capacity 64, batches of 8 aligned to
    /// 2-sample blocks, 1 ms virtual deadline.
    pub fn standard(seed: u64) -> Self {
        Self {
            queue_capacity: 64,
            max_batch: 8,
            block_align: 2,
            default_deadline_ns: 1_000_000,
            retry: RetryPolicy::default(),
            health: HealthPolicy::standard(),
            energy: EnergyModel::representative(),
            clock: ClockMode::Virtual,
            seed,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] (wrapped) for a zero
    /// queue capacity, batch bound, block alignment, or deadline, and
    /// propagates [`HealthPolicy::validate`].
    pub fn validate(&self) -> Result<()> {
        if self.queue_capacity == 0 {
            return Err(TensorError::InvalidArgument("queue_capacity must be ≥ 1".into()).into());
        }
        if self.max_batch == 0 || self.block_align == 0 {
            return Err(TensorError::InvalidArgument(
                "max_batch and block_align must be ≥ 1".into(),
            )
            .into());
        }
        if self.default_deadline_ns == 0 {
            return Err(
                TensorError::InvalidArgument("default_deadline_ns must be ≥ 1".into()).into(),
            );
        }
        self.health.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_validates() {
        assert!(ServeConfig::standard(7).validate().is_ok());
        let mut c = ServeConfig::standard(7);
        c.queue_capacity = 0;
        assert!(c.validate().is_err());
        let mut c = ServeConfig::standard(7);
        c.max_batch = 0;
        assert!(c.validate().is_err());
        let mut c = ServeConfig::standard(7);
        c.default_deadline_ns = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn backoff_grows_exponentially() {
        let r = RetryPolicy {
            max_retries: 3,
            backoff_ns: 100,
            backoff_factor: 2,
        };
        assert_eq!(r.backoff_for(1), 100);
        assert_eq!(r.backoff_for(2), 200);
        assert_eq!(r.backoff_for(3), 400);
        // factor 0 is clamped to 1 instead of zeroing the penalty
        let flat = RetryPolicy {
            backoff_factor: 0,
            ..r
        };
        assert_eq!(flat.backoff_for(3), 100);
    }
}
