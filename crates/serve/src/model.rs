//! The model contract the serving loop drives, and its implementations.
//!
//! A [`ServeModel`] is anything that turns a batch of samples into a
//! batch of outputs through crossbar hardware, deterministically in the
//! RNG it is handed: given the same call sequence (forwards + upset
//! injections) against the same deployed state and RNG stream, outputs
//! are bitwise identical at any engine thread count. That contract —
//! inherited from the engine's keyed noise substreams — is what makes
//! serve-level replay exact.

use membit_core::DeviceVgg;
use membit_encoding::pla::PlaThermometer;
use membit_encoding::BitEncoder;
use membit_tensor::{Rng, Tensor, TensorError};
use membit_xbar::{CellSide, CrossbarLinear, ExecutionStats, XbarConfig};

use crate::Result;

/// A crossbar-backed model the serving loop can drive.
pub trait ServeModel {
    /// Shape of one input sample (no batch axis).
    fn input_shape(&self) -> Vec<usize>;

    /// Length of one output row.
    fn output_dim(&self) -> usize;

    /// Runs one batch shaped `[N, ...input_shape]`, returning outputs
    /// `[N, output_dim]` and the batch's hardware event counts.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    fn forward_batch(&mut self, batch: &Tensor, rng: &mut Rng) -> Result<(Tensor, ExecutionStats)>;

    /// Injects transient stuck-at upsets at per-cell `rate` across the
    /// deployment (the chaos hook), returning the number injected.
    ///
    /// # Errors
    ///
    /// Propagates injection errors.
    fn inject_upsets(&mut self, rate: f32, rng: &mut Rng) -> Result<u64>;

    /// Layers the guard ladder has demoted to the digital fallback.
    fn degraded_layers(&self) -> u64;

    /// Rebounds the engine thread fan-out (wall clock only — outputs
    /// are bitwise independent of it).
    ///
    /// # Errors
    ///
    /// Rejects a zero thread count.
    fn set_max_threads(&mut self, max_threads: usize) -> Result<()>;

    /// Swaps the input-encoding pulse counts between batches (e.g. a
    /// MemSE-planned encoding from
    /// [`membit_core::MemseNetwork::analytic_search`]). Pulse counts are
    /// digital-driver state, not conductances: no reprogramming, no RNG
    /// consumption — replay stays bitwise. Must be atomic: on error the
    /// previous encoding remains fully in effect.
    ///
    /// # Errors
    ///
    /// The default rejects with [`crate::ServeError::BadRequest`]
    /// (model has no reconfigurable encoding); implementations reject
    /// layout mismatches and invalid pulse counts.
    fn reconfigure_encoding(&mut self, pulses: &[usize]) -> Result<()> {
        let _ = pulses;
        Err(crate::ServeError::BadRequest(
            "model does not support encoding reconfiguration".into(),
        ))
    }
}

impl ServeModel for DeviceVgg {
    fn input_shape(&self) -> Vec<usize> {
        self.input_shape().to_vec()
    }

    fn output_dim(&self) -> usize {
        self.num_classes()
    }

    fn forward_batch(&mut self, batch: &Tensor, rng: &mut Rng) -> Result<(Tensor, ExecutionStats)> {
        Ok(self.forward(batch, rng)?)
    }

    fn inject_upsets(&mut self, rate: f32, rng: &mut Rng) -> Result<u64> {
        Ok(self.inject_faults(rate, rng)?)
    }

    fn degraded_layers(&self) -> u64 {
        self.degraded_layers()
    }

    fn set_max_threads(&mut self, max_threads: usize) -> Result<()> {
        Ok(DeviceVgg::set_max_threads(self, max_threads)?)
    }

    fn reconfigure_encoding(&mut self, pulses: &[usize]) -> Result<()> {
        Ok(DeviceVgg::reconfigure_encoding(self, pulses)?)
    }
}

/// A single guarded [`CrossbarLinear`] behind a PLA thermometer encoder —
/// the cheap model for serve tests and queue-level benchmarks, with the
/// exact execution semantics (guard ladder, keyed substreams, fallback)
/// of a full deployment layer.
pub struct LinearServeModel {
    engine: CrossbarLinear,
    encoder: PlaThermometer,
    in_features: usize,
    out_features: usize,
}

impl LinearServeModel {
    /// Programs `weights` (`[out, in]`) onto a crossbar under `config`
    /// and encodes inputs with an `act_levels`-level, `pulses`-pulse PLA
    /// thermometer code.
    ///
    /// # Errors
    ///
    /// Propagates programming/encoder construction errors.
    pub fn program(
        weights: &Tensor,
        config: &XbarConfig,
        act_levels: usize,
        pulses: usize,
        rng: &mut Rng,
    ) -> Result<Self> {
        let shape = weights.shape();
        if shape.len() != 2 {
            return Err(TensorError::InvalidArgument(
                "LinearServeModel needs a [out, in] weight matrix".into(),
            )
            .into());
        }
        Ok(Self {
            engine: CrossbarLinear::program(weights, config, rng)?,
            encoder: PlaThermometer::new(act_levels, pulses)?,
            in_features: shape[1],
            out_features: shape[0],
        })
    }
}

impl ServeModel for LinearServeModel {
    fn input_shape(&self) -> Vec<usize> {
        vec![self.in_features]
    }

    fn output_dim(&self) -> usize {
        self.out_features
    }

    fn forward_batch(&mut self, batch: &Tensor, rng: &mut Rng) -> Result<(Tensor, ExecutionStats)> {
        let train = self.encoder.encode_tensor(batch)?;
        Ok(self.engine.execute_guarded(&train, rng)?)
    }

    fn inject_upsets(&mut self, rate: f32, rng: &mut Rng) -> Result<u64> {
        let (out, inp) = self.engine.dims();
        let count = ((out * inp) as f32 * rate).round() as usize;
        for _ in 0..count {
            let row = rng.below(inp);
            let col = rng.below(out);
            let side = if rng.coin(0.5) {
                CellSide::Pos
            } else {
                CellSide::Neg
            };
            let high = rng.coin(0.5);
            self.engine.upset_cell(row, col, side, high)?;
        }
        Ok(count as u64)
    }

    fn degraded_layers(&self) -> u64 {
        u64::from(self.engine.is_degraded())
    }

    fn set_max_threads(&mut self, max_threads: usize) -> Result<()> {
        Ok(self.engine.set_max_threads(max_threads)?)
    }

    fn reconfigure_encoding(&mut self, pulses: &[usize]) -> Result<()> {
        let [q] = pulses else {
            return Err(TensorError::InvalidArgument(format!(
                "LinearServeModel has one crossbar operator, got {} pulse counts",
                pulses.len()
            ))
            .into());
        };
        // validate-then-swap: a bad count leaves the old encoder live
        self.encoder = PlaThermometer::new(self.encoder.levels(), *q)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use membit_encoding::MAX_NESTED_PULSES;
    use membit_xbar::GuardPolicy;

    fn model(seed: u64) -> LinearServeModel {
        let w = Tensor::from_fn(&[3, 4], |i| if i % 2 == 0 { 1.0 } else { -1.0 });
        let cfg = XbarConfig::functional(0.02).with_guard(GuardPolicy::standard());
        LinearServeModel::program(&w, &cfg, 9, 6, &mut Rng::from_seed(seed)).unwrap()
    }

    #[test]
    fn linear_model_serves_batches() {
        let w = Tensor::from_fn(&[3, 4], |i| if i % 2 == 0 { 1.0 } else { -1.0 });
        let cfg = XbarConfig::functional(0.02);
        let mut rng = Rng::from_seed(3);
        assert!(LinearServeModel::program(&w, &cfg, 9, MAX_NESTED_PULSES + 1, &mut rng).is_err());
        let mut m = model(3);
        assert_eq!(m.input_shape(), vec![4]);
        assert_eq!(m.output_dim(), 3);
        let x = Tensor::from_fn(&[2, 4], |i| (i as f32 / 4.0 - 1.0).clamp(-1.0, 1.0));
        let (y, stats) = m.forward_batch(&x, &mut Rng::from_seed(9)).unwrap();
        assert_eq!(y.shape(), &[2, 3]);
        assert!(stats.pulses > 0);
        assert!(stats.guard.checks > 0);
    }

    #[test]
    fn upsets_are_injected_and_counted() {
        let mut m = model(5);
        let n = m.inject_upsets(0.5, &mut Rng::from_seed(11)).unwrap();
        assert!(n > 0);
        assert_eq!(m.degraded_layers(), 0);
    }

    #[test]
    fn reconfigure_is_atomic_and_changes_decode() {
        let mut m = model(9);
        let x = Tensor::from_fn(&[1, 4], |i| ((i % 3) as f32 - 1.0) * 0.7);
        let (before, _) = m.forward_batch(&x, &mut Rng::from_seed(21)).unwrap();
        // wrong arity, zero pulses and more pulses than a count-coded
        // train holds are rejected, old encoder stays live
        assert!(m.reconfigure_encoding(&[6, 6]).is_err());
        assert!(m.reconfigure_encoding(&[0]).is_err());
        assert!(m.reconfigure_encoding(&[MAX_NESTED_PULSES + 1]).is_err());
        let (unchanged, _) = m.forward_batch(&x, &mut Rng::from_seed(21)).unwrap();
        assert_eq!(before.as_slice(), unchanged.as_slice());
        // a valid swap takes effect (different pulse count, same levels)
        m.reconfigure_encoding(&[12]).unwrap();
        let (after, stats) = m.forward_batch(&x, &mut Rng::from_seed(21)).unwrap();
        assert_eq!(after.shape(), before.shape());
        assert_eq!(stats.pulses % 12, 0, "12-pulse trains drive the engine");
    }

    #[test]
    fn forward_is_deterministic_across_thread_counts() {
        let x = Tensor::from_fn(&[4, 4], |i| ((i % 5) as f32 / 2.0 - 1.0).clamp(-1.0, 1.0));
        let mut outs = Vec::new();
        for threads in [1usize, 4] {
            let mut m = model(7);
            m.set_max_threads(threads).unwrap();
            let (y, _) = m.forward_batch(&x, &mut Rng::from_seed(13)).unwrap();
            outs.push(y);
        }
        assert_eq!(outs[0].as_slice(), outs[1].as_slice());
    }
}
