//! The append-only request log and deterministic replay.
//!
//! The serving loop records every event that influences model state or
//! RNG consumption, in execution order: admissions (with the full
//! payload), chaos injections, deadline expiries, and the composition of
//! every executed batch. Together with the serving seed this is a
//! complete causal record — [`replay_shards`](crate::replay_shards)
//! re-executes each shard's log against a freshly deployed model and
//! reproduces every response **bitwise**, at any engine thread count,
//! because the engine's noise is keyed per `(pulse, sample, tile)` and
//! the serve RNG is consumed only by forwards and chaos injections,
//! never by queueing or scheduling.

use membit_tensor::{Rng, RngStream, Tensor};

use crate::executor::run_batch;
use crate::model::ServeModel;
use crate::{Result, ServeError};

/// Stream tag separating the serving RNG from training/deploy streams.
const SERVE_STREAM_TAG: u64 = 0x5E12_7E00;

/// The serving RNG for `seed`: live serving and replay both start here.
pub fn serve_rng(seed: u64) -> Rng {
    Rng::from_seed(seed).stream(RngStream::Custom(SERVE_STREAM_TAG))
}

/// One recorded serving event.
#[derive(Debug, Clone, PartialEq)]
pub enum LogEvent {
    /// A request passed admission control.
    Admit {
        /// Request id (dense, in admission order).
        id: u64,
        /// Virtual arrival time (ns).
        arrival_ns: u64,
        /// Deadline budget (ns).
        deadline_ns: u64,
        /// Flattened input sample.
        input: Vec<f32>,
    },
    /// A chaos injection ([`ServeModel::inject_upsets`]) was applied.
    Chaos {
        /// Per-cell upset rate.
        rate: f32,
    },
    /// The input encoding was swapped between batches
    /// ([`ServeModel::reconfigure_encoding`]). Recorded only on success
    /// (the swap is atomic and consumes no RNG), so replay applies it
    /// unconditionally.
    Reconfigure {
        /// Pulse counts per crossbar operator.
        pulses: Vec<usize>,
    },
    /// A request expired before any batch picked it up. Expiry consumes
    /// no RNG; the event documents the typed rejection (no silent drop).
    Expire {
        /// The expired request.
        id: u64,
        /// Virtual time of detection (ns).
        now_ns: u64,
    },
    /// A batch executed with exactly these requests, in this row order.
    Batch {
        /// Member request ids (log-order = row order).
        ids: Vec<u64>,
    },
}

/// Append-only record of one serving session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestLog {
    events: Vec<LogEvent>,
}

impl RequestLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event.
    pub fn push(&mut self, event: LogEvent) {
        self.events.push(event);
    }

    /// All events in execution order.
    pub fn events(&self) -> &[LogEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Re-executes one shard's request log against a freshly deployed
/// `model`, returning `(id, output_row)` for every batched request in
/// execution order. With the shard's serving `seed` the rows are bitwise
/// identical to the live responses, at any engine thread count.
///
/// # Errors
///
/// Returns [`ServeError::BadRequest`] if the log references an id with
/// no recorded admission, and propagates engine errors.
pub(crate) fn replay<M: ServeModel>(
    model: &mut M,
    seed: u64,
    log: &RequestLog,
) -> Result<Vec<(u64, Vec<f32>)>> {
    let mut rng = serve_rng(seed);
    let shape = model.input_shape();
    let sample_len: usize = shape.iter().product();
    let out_dim = model.output_dim();
    // admitted payloads by id; Vec-indexed because ids are dense
    let mut inputs: Vec<Option<Vec<f32>>> = Vec::new();
    let mut responses = Vec::new();
    for event in log.events() {
        match event {
            LogEvent::Admit { id, input, .. } => {
                let idx = *id as usize;
                if inputs.len() <= idx {
                    inputs.resize(idx + 1, None);
                }
                inputs[idx] = Some(input.clone());
            }
            LogEvent::Chaos { rate } => {
                model.inject_upsets(*rate, &mut rng)?;
            }
            LogEvent::Reconfigure { pulses } => {
                // no RNG: the swap is digital-driver state only
                model.reconfigure_encoding(pulses)?;
            }
            LogEvent::Expire { .. } => {}
            LogEvent::Batch { ids } => {
                let mut flat = Vec::with_capacity(ids.len() * sample_len);
                for id in ids {
                    let input = inputs
                        .get(*id as usize)
                        .and_then(Option::as_ref)
                        .ok_or_else(|| {
                            ServeError::BadRequest(format!("batch references unadmitted id {id}"))
                        })?;
                    flat.extend_from_slice(input);
                }
                let mut batch_shape = vec![ids.len()];
                batch_shape.extend_from_slice(&shape);
                let batch = Tensor::from_vec(flat, &batch_shape)?;
                let (y, _, _) = run_batch(model, &batch, &mut rng)?;
                let rows = y.as_slice();
                if rows.len() != ids.len() * out_dim {
                    return Err(ServeError::Internal(format!(
                        "model returned {} values for a {}×{out_dim} batch",
                        rows.len(),
                        ids.len()
                    )));
                }
                for (row, id) in ids.iter().enumerate() {
                    responses.push((*id, rows[row * out_dim..(row + 1) * out_dim].to_vec()));
                }
            }
        }
    }
    Ok(responses)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_is_append_only_and_ordered() {
        let mut log = RequestLog::new();
        assert!(log.is_empty());
        log.push(LogEvent::Admit {
            id: 0,
            arrival_ns: 0,
            deadline_ns: 100,
            input: vec![1.0],
        });
        log.push(LogEvent::Chaos { rate: 0.1 });
        log.push(LogEvent::Batch { ids: vec![0] });
        assert_eq!(log.len(), 3);
        assert!(matches!(log.events()[1], LogEvent::Chaos { .. }));
    }

    #[test]
    fn replay_rejects_unadmitted_ids() {
        use crate::model::LinearServeModel;
        use membit_xbar::XbarConfig;
        let w = Tensor::from_fn(&[2, 3], |i| if i % 2 == 0 { 1.0 } else { -1.0 });
        let mut m =
            LinearServeModel::program(&w, &XbarConfig::ideal(), 9, 4, &mut Rng::from_seed(1))
                .unwrap();
        let mut log = RequestLog::new();
        log.push(LogEvent::Batch { ids: vec![5] });
        let err = replay(&mut m, 7, &log).unwrap_err();
        assert!(matches!(err, ServeError::BadRequest(_)));
    }
}
