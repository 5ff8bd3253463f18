//! The divergence watchdog: per-batch numerical health checks for every
//! training loop in this crate.
//!
//! The watchdog is a small state machine wrapped around an exponential
//! moving average of the batch loss:
//!
//! ```text
//!         observe(loss)                    healthy → update EMA
//!   ┌────────────────────┐
//!   │  loss NaN/Inf?     │──► NonFiniteLoss ─┐
//!   │  grads NaN/Inf?    │──► NonFiniteGrad ─┼─► `run_epochs` loads the last
//!   │  loss ≫ EMA after  │                   │   epoch's checkpoint, halves
//!   │  warmup?           │──► LossSpike ─────┘   the LR, retries; after
//!   └────────────────────┘                       `MAX_RETRIES` the run
//!                                                fails with
//!                                                [`TrainError::Diverged`]
//! ```
//!
//! The epoch loop (`resilience::run_epochs`) owns the rollback
//! mechanics — the in-memory checkpoint, the LR backoff and the retry
//! budget; this module owns detection. Its thresholds are constants, and
//! the gradient check is always on.
//!
//! [`TrainError::Diverged`]: crate::TrainError::Diverged

use membit_autograd::Tape;
use membit_nn::Binding;

use crate::error::DivergenceReason;

/// A batch loss above `SPIKE_FACTOR × EMA` (after warm-up) counts as
/// divergence.
const SPIKE_FACTOR: f32 = 25.0;
/// Batches observed before spike detection arms: the EMA needs a few
/// samples to mean anything. NaN/Inf checks are always armed.
const WARMUP_BATCHES: usize = 8;
/// EMA decay per batch (closer to 1 = smoother).
const EMA_DECAY: f32 = 0.9;

/// Per-batch numerical health monitor (see the module docs for the state
/// machine).
#[derive(Debug, Clone, Default)]
pub struct TrainWatchdog {
    ema: Option<f32>,
    observed: usize,
    trips: usize,
}

impl TrainWatchdog {
    /// Creates an armed watchdog with no loss history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of times the watchdog has tripped so far.
    pub fn trips(&self) -> usize {
        self.trips
    }

    /// Feeds one batch loss. Returns `Some(reason)` when the loss is
    /// unhealthy — the caller must then roll back and call
    /// [`reset_epoch`](Self::reset_epoch). Healthy losses update the EMA.
    pub fn observe(&mut self, loss: f32) -> Option<DivergenceReason> {
        if !loss.is_finite() {
            self.trips += 1;
            return Some(DivergenceReason::NonFiniteLoss);
        }
        if self.observed >= WARMUP_BATCHES {
            if let Some(ema) = self.ema {
                if ema > 0.0 && loss > ema * SPIKE_FACTOR {
                    self.trips += 1;
                    return Some(DivergenceReason::LossSpike { loss, ema });
                }
            }
        }
        self.ema = Some(match self.ema {
            Some(ema) => ema * EMA_DECAY + loss * (1.0 - EMA_DECAY),
            None => loss,
        });
        self.observed += 1;
        None
    }

    /// Scans the gradients of every bound parameter. Returns
    /// `Some(NonFiniteGrad)` (and counts a trip) if any is NaN/Inf.
    pub fn check_grads(&mut self, tape: &Tape, binding: &Binding) -> Option<DivergenceReason> {
        for (_, var) in binding.bound() {
            if let Some(grad) = tape.grad(var) {
                if grad.as_slice().iter().any(|v| !v.is_finite()) {
                    self.trips += 1;
                    return Some(DivergenceReason::NonFiniteGrad);
                }
            }
        }
        None
    }

    /// Clears the loss statistics after a rollback (the replayed epoch
    /// must not be judged against the diverged run's EMA).
    pub fn reset_epoch(&mut self) {
        self.ema = None;
        self.observed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use membit_nn::Params;
    use membit_tensor::Tensor;

    /// A watchdog that has seen its warm-up batches at loss 1.
    fn warmed_up() -> TrainWatchdog {
        let mut w = TrainWatchdog::new();
        for _ in 0..WARMUP_BATCHES {
            assert!(w.observe(1.0).is_none());
        }
        w
    }

    #[test]
    fn nan_and_inf_always_trip() {
        let mut w = TrainWatchdog::new();
        assert_eq!(w.observe(f32::NAN), Some(DivergenceReason::NonFiniteLoss));
        assert_eq!(
            w.observe(f32::INFINITY),
            Some(DivergenceReason::NonFiniteLoss)
        );
        assert_eq!(w.trips(), 2);
    }

    #[test]
    fn spike_requires_warmup() {
        let mut w = TrainWatchdog::new();
        // during warm-up even a huge jump passes
        assert!(w.observe(1.0).is_none());
        assert!(w.observe(100.0).is_none());
        // after warm-up, a jump above the spike factor × EMA trips
        let mut w = warmed_up();
        assert!(w.observe(1.1).is_none());
        match w.observe(50.0) {
            Some(DivergenceReason::LossSpike { loss, .. }) => assert_eq!(loss, 50.0),
            other => panic!("expected spike, got {other:?}"),
        }
    }

    #[test]
    fn steady_loss_never_trips() {
        let mut w = warmed_up();
        for i in 0..100 {
            let loss = 2.0 + (i as f32 * 0.7).sin() * 0.5;
            assert!(w.observe(loss).is_none(), "tripped at batch {i}");
        }
        assert_eq!(w.trips(), 0);
    }

    #[test]
    fn reset_epoch_rearms_warmup() {
        let mut w = warmed_up();
        w.reset_epoch();
        // first post-reset batch is warm-up again: no spike judgement
        assert!(w.observe(100.0).is_none());
    }

    #[test]
    fn grad_check_finds_nan() {
        let mut params = Params::new();
        let id = params.register("w", Tensor::from_vec(vec![2.0], &[1]).unwrap());
        let mut tape = Tape::new();
        let mut binding = params.binding();
        let w = params.bind(&mut tape, &mut binding, id);
        // loss = w · NaN ⇒ ∂loss/∂w = NaN
        let c = tape.constant(Tensor::from_vec(vec![f32::NAN], &[1]).unwrap());
        let l = tape.mul(w, c).unwrap();
        let loss = tape.sum_all(l);
        tape.backward(loss).unwrap();
        let mut dog = TrainWatchdog::new();
        assert_eq!(
            dog.check_grads(&tape, &binding),
            Some(DivergenceReason::NonFiniteGrad)
        );
    }
}
