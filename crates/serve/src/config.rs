//! Serving-loop configuration: queue bounds, batching, deadlines and the
//! energy model, plus the serve-level retry constants.

use membit_tensor::TensorError;
use membit_xbar::EnergyModel;

use crate::Result;

/// Serve-level re-execution attempts after a batch's first engine error,
/// layered *above* the engine's guard escalation ladder (guard
/// violations the ladder already absorbed never reach it); also the
/// failover hops a request may take after its shard dies.
pub(crate) const MAX_RETRIES: u32 = 2;
/// Virtual-time penalty charged before the first retry (ns).
const BACKOFF_NS: u64 = 1_000;
/// Multiplier applied to the backoff per subsequent retry.
const BACKOFF_FACTOR: u64 = 2;

/// Backoff charged to the virtual clock before retry `attempt`
/// (1-based), in ns: `BACKOFF_NS · BACKOFF_FACTOR^(attempt − 1)`,
/// saturating.
pub(crate) fn backoff_for(attempt: u32) -> u64 {
    BACKOFF_NS.saturating_mul(BACKOFF_FACTOR.saturating_pow(attempt.saturating_sub(1)))
}

/// Configuration of one serving deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Bounded queue capacity; submissions beyond it are rejected with
    /// [`ServeError::QueueFull`](crate::ServeError::QueueFull).
    pub queue_capacity: usize,
    /// Maximum requests packed into one engine batch.
    pub max_batch: usize,
    /// Deadline budget granted to a request on admission (virtual ns).
    pub default_deadline_ns: u64,
    /// First-order latency/energy model that drives the virtual clock,
    /// on which deadlines also expire.
    pub energy: EnergyModel,
    /// Seed of the serving RNG (chaos injections + model noise). With
    /// the request log this fully determines every response bit.
    pub seed: u64,
}

impl ServeConfig {
    /// A small-deployment default: capacity 64, batches of 8, 1 ms
    /// virtual deadline.
    pub fn standard(seed: u64) -> Self {
        Self {
            queue_capacity: 64,
            max_batch: 8,
            default_deadline_ns: 1_000_000,
            energy: EnergyModel::representative(),
            seed,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] (wrapped) for a zero
    /// queue capacity, batch bound, or deadline, or a non-finite or
    /// negative energy-model field.
    pub fn validate(&self) -> Result<()> {
        if self.queue_capacity == 0 {
            return Err(TensorError::InvalidArgument("queue_capacity must be ≥ 1".into()).into());
        }
        if self.max_batch == 0 {
            return Err(TensorError::InvalidArgument("max_batch must be ≥ 1".into()).into());
        }
        if self.default_deadline_ns == 0 {
            return Err(
                TensorError::InvalidArgument("default_deadline_ns must be ≥ 1".into()).into(),
            );
        }
        // a NaN or negative cost would stall or rewind the virtual clock
        // that deadlines expire on
        let e = &self.energy;
        if ![e.pj_per_cell_read, e.pj_per_adc, e.ns_per_pulse]
            .iter()
            .all(|v| v.is_finite() && *v >= 0.0)
        {
            return Err(TensorError::InvalidArgument(
                "energy model fields must be finite and non-negative".into(),
            )
            .into());
        }
        Ok(())
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
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mut c = ServeConfig::standard(7);
            c.energy.ns_per_pulse = bad;
            assert!(c.validate().is_err(), "ns_per_pulse {bad}");
            let mut c = ServeConfig::standard(7);
            c.energy.pj_per_adc = bad;
            assert!(c.validate().is_err(), "pj_per_adc {bad}");
            let mut c = ServeConfig::standard(7);
            c.energy.pj_per_cell_read = bad;
            assert!(c.validate().is_err(), "pj_per_cell_read {bad}");
        }
    }

    #[test]
    fn backoff_grows_exponentially() {
        assert_eq!(backoff_for(1), 1_000);
        assert_eq!(backoff_for(2), 2_000);
        assert_eq!(backoff_for(3), 4_000);
        // attempt 0 charges the base penalty, and huge attempts saturate
        // instead of wrapping
        assert_eq!(backoff_for(0), 1_000);
        assert_eq!(backoff_for(u32::MAX), u64::MAX);
    }
}
