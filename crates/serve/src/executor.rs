//! The deterministic serving core of one shard. Every shard of a
//! [`ShardSet`](crate::ShardSet) owns one; the threaded
//! [`ShardServer`](crate::ShardServer) and the discrete-event
//! [`simulate_shards`](crate::simulate_shards) driver reach it only
//! through the set.
//!
//! All decisions here are pure functions of `(config, admitted order,
//! batch composition, RNG stream)` — the virtual clock is advanced from
//! the energy model's latency accounting, never from wall time, so a
//! live threaded run and its replay walk identical state.

use membit_tensor::{Rng, Tensor};
use membit_xbar::{ExecutionStats, SAMPLES_PER_THREAD};

use crate::config::{backoff_for, ServeConfig, MAX_RETRIES};
use crate::health::{HealthState, HealthTracker};
use crate::log::{LogEvent, RequestLog};
use crate::model::ServeModel;
use crate::{Result, ServeError};

/// An admitted request waiting for a batch.
#[derive(Debug, Clone, PartialEq)]
pub struct Pending {
    /// Dense id assigned at admission.
    pub id: u64,
    /// Flattened input sample.
    pub input: Vec<f32>,
    /// Virtual arrival time (ns).
    pub arrival_ns: u64,
    /// Deadline budget (ns).
    pub deadline_ns: u64,
}

/// Per-request completion telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Output row of the model.
    pub output: Vec<f32>,
    /// Virtual completion time (ns).
    pub completed_ns: u64,
    /// Queueing + execution latency (ns, virtual).
    pub latency_ns: u64,
    /// Energy attributed to this request: the batch's energy split
    /// evenly over its members (pJ).
    pub energy_pj: f64,
    /// Guard checksum violations observed by the carrying batch.
    pub guard_violations: u64,
    /// Whether the deployment was degraded (any layer on the digital
    /// fallback) when the response was produced.
    pub degraded: bool,
    /// Whether the response was delivered past its deadline (it was
    /// already executing when the deadline lapsed — delivered anyway,
    /// flagged for the client).
    pub late: bool,
}

/// Aggregate serving counters. The accounting identity
/// `admitted == completed + expired + failed + cancelled` holds at
/// shutdown — no request is ever lost or double-served.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeStats {
    /// Requests past admission control.
    pub admitted: u64,
    /// Requests rejected with `QueueFull`.
    pub rejected_queue_full: u64,
    /// Requests rejected with `Shed`.
    pub rejected_shed: u64,
    /// Requests that completed with a response.
    pub completed: u64,
    /// Completions delivered past their deadline.
    pub late_completions: u64,
    /// Requests expired before execution (`DeadlineExceeded`).
    pub expired: u64,
    /// Requests failed by engine errors after retries.
    pub failed: u64,
    /// Admitted requests resolved with `Closed` by a kill.
    pub cancelled: u64,
    /// Batches executed.
    pub batches: u64,
    /// Serve-level batch retries (above the guard ladder's own).
    pub retries: u64,
    /// Chaos injections applied.
    pub chaos_events: u64,
    /// Total upset cells injected by chaos.
    pub chaos_upsets: u64,
    /// Chaos injections that errored (counted, never silently dropped).
    pub chaos_failures: u64,
    /// Successful encoding reconfigurations applied between batches.
    pub reconfigures: u64,
    /// Requests re-routed to another shard after their shard died or
    /// was quarantined mid-flight (sets of two or more only).
    pub failovers: u64,
    /// High-water mark of the request queue depth.
    pub max_queue_depth: u64,
    /// Merged hardware event counts across all batches.
    pub exec: ExecutionStats,
}

impl ServeStats {
    /// Whether every admitted request was resolved exactly once.
    pub fn accounted(&self) -> bool {
        self.admitted == self.completed + self.expired + self.failed + self.cancelled
    }
}

/// Checks a request payload where it enters the service: `sample_len`
/// values, every one finite. A non-finite value admitted here would fail
/// its whole batch in the encoder, taking every co-batched request down
/// with it once the retries run out.
///
/// # Errors
///
/// Returns [`ServeError::BadRequest`] for a wrong-sized or non-finite
/// payload.
pub(crate) fn check_payload(input: &[f32], sample_len: usize) -> Result<()> {
    if input.len() != sample_len {
        return Err(ServeError::BadRequest(format!(
            "payload has {} values, model wants {sample_len}",
            input.len()
        )));
    }
    if let Some((i, v)) = input.iter().enumerate().find(|(_, v)| !v.is_finite()) {
        return Err(ServeError::BadRequest(format!(
            "payload value {i} is non-finite ({v})"
        )));
    }
    Ok(())
}

/// How many of `waiting` requests the next batch should take: capped at
/// `max_batch`, and — when more work is waiting than fits — rounded down
/// to a multiple of the engine's sample block
/// ([`SAMPLES_PER_THREAD`]) so full blocks land on worker threads. A
/// final partial batch (everything that's left) is always allowed, so
/// no request can starve.
pub fn batch_quota(waiting: usize, max_batch: usize) -> usize {
    let n = waiting.min(max_batch);
    if n == waiting {
        return n; // drain: partial block allowed
    }
    let aligned = (n / SAMPLES_PER_THREAD) * SAMPLES_PER_THREAD;
    // a cap below one block makes alignment impossible; take the cap
    if aligned == 0 {
        n
    } else {
        aligned
    }
}

/// Executes one batch with up to [`MAX_RETRIES`] serve-level retries,
/// returning the outputs, the stats of the successful attempt, and the
/// number of retries taken.
///
/// # Errors
///
/// Returns [`ServeError::Engine`] once the retry budget is exhausted.
pub(crate) fn run_batch<M: ServeModel>(
    model: &mut M,
    batch: &Tensor,
    rng: &mut Rng,
) -> Result<(Tensor, ExecutionStats, u32)> {
    let mut attempt = 0u32;
    loop {
        match model.forward_batch(batch, rng) {
            Ok((y, stats)) => return Ok((y, stats, attempt)),
            Err(e) => {
                if attempt >= MAX_RETRIES {
                    return Err(e);
                }
                attempt += 1;
            }
        }
    }
}

/// The single-owner serving core: model, RNG, log, clock, health, and
/// counters. Each shard of a [`ShardSet`](crate::ShardSet) owns one; it
/// is never shared.
pub struct Executor<M> {
    model: M,
    rng: Rng,
    config: ServeConfig,
    log: RequestLog,
    health: HealthTracker,
    stats: ServeStats,
    clock_ns: u64,
    sample_len: usize,
    input_shape: Vec<usize>,
    out_dim: usize,
}

impl<M: ServeModel> Executor<M> {
    /// Wraps a deployed model for serving under `config`.
    ///
    /// # Errors
    ///
    /// Propagates [`ServeConfig::validate`].
    pub fn new(model: M, config: ServeConfig) -> Result<Self> {
        config.validate()?;
        let input_shape = model.input_shape();
        let sample_len = input_shape.iter().product();
        let out_dim = model.output_dim();
        let rng = crate::log::serve_rng(config.seed);
        Ok(Self {
            model,
            rng,
            config,
            log: RequestLog::new(),
            health: HealthTracker::new(),
            stats: ServeStats::default(),
            clock_ns: 0,
            sample_len,
            input_shape,
            out_dim,
        })
    }

    /// Current virtual time (ns).
    pub fn clock_ns(&self) -> u64 {
        self.clock_ns
    }

    /// Advances the virtual clock to `t_ns` if it lies ahead (idle time
    /// in a discrete-event simulation; the clock never moves backward).
    pub fn advance_clock_to(&mut self, t_ns: u64) {
        self.clock_ns = self.clock_ns.max(t_ns);
    }

    /// Current health state.
    pub fn health_state(&self) -> HealthState {
        self.health.state()
    }

    /// Forces the health tracker's violation estimate (the chaos
    /// harness's deterministic degradation hook). Consumes no RNG and
    /// is not logged: health only gates admission, and admission effects
    /// are fully captured by the logged batch compositions.
    pub fn force_health(&mut self, ema: f64) -> HealthState {
        let degraded = self.model.degraded_layers();
        self.health.force(ema, degraded)
    }

    /// Observes one idle, violation-free tick — how a quarantined shard
    /// with no traffic decays its violation EMA back toward service.
    pub fn decay_health(&mut self) -> HealthState {
        let degraded = self.model.degraded_layers();
        self.health.observe(&ExecutionStats::default(), degraded)
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// The append-only log so far.
    pub fn log(&self) -> &RequestLog {
        &self.log
    }

    /// Records an admission (the set assigns ids, the drivers stamp
    /// arrivals) in the log, in scheduling order. The payload is checked
    /// here, so a malformed request is rejected before it can occupy a
    /// slot.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] for a wrong-sized or non-finite
    /// payload.
    pub fn register(&mut self, pending: &Pending) -> Result<()> {
        check_payload(&pending.input, self.sample_len)?;
        self.stats.admitted += 1;
        self.log.push(LogEvent::Admit {
            id: pending.id,
            arrival_ns: pending.arrival_ns,
            deadline_ns: pending.deadline_ns,
            input: pending.input.clone(),
        });
        Ok(())
    }

    /// Applies one chaos injection, logging it in stream order.
    ///
    /// # Errors
    ///
    /// Propagates injection errors.
    pub fn apply_chaos(&mut self, rate: f32) -> Result<u64> {
        self.log.push(LogEvent::Chaos { rate });
        match self.model.inject_upsets(rate, &mut self.rng) {
            Ok(injected) => {
                self.stats.chaos_events += 1;
                self.stats.chaos_upsets += injected;
                Ok(injected)
            }
            Err(e) => {
                self.stats.chaos_failures += 1;
                Err(e)
            }
        }
    }

    /// Swaps the model's input-encoding pulse counts between batches,
    /// logging the event in stream order. The swap consumes no RNG and
    /// is atomic in the model, so it is logged only on success — a
    /// rejected reconfiguration leaves both the encoding and the replay
    /// log untouched.
    ///
    /// # Errors
    ///
    /// Propagates the model's rejection (layout mismatch, zero pulses,
    /// or an unsupported model).
    pub fn apply_reconfigure(&mut self, pulses: &[usize]) -> Result<()> {
        self.model.reconfigure_encoding(pulses)?;
        self.log.push(LogEvent::Reconfigure {
            pulses: pulses.to_vec(),
        });
        self.stats.reconfigures += 1;
        Ok(())
    }

    /// Serves one slice of admitted requests: expires the overdue,
    /// batches the rest, executes with retries, advances the virtual
    /// clock, updates health, and returns each request's typed outcome
    /// with its request: the expired first, then the batch in row order.
    ///
    /// An engine failure after retries fails the *batch members* (each
    /// owner gets the error) but never the loop itself.
    pub fn serve(&mut self, requests: Vec<Pending>) -> Vec<(Pending, Result<Response>)> {
        let mut outcomes = Vec::with_capacity(requests.len());
        let mut live = Vec::with_capacity(requests.len());
        let now = self.clock_ns;
        for req in requests {
            if now > req.arrival_ns.saturating_add(req.deadline_ns) {
                self.log.push(LogEvent::Expire {
                    id: req.id,
                    now_ns: now,
                });
                self.stats.expired += 1;
                let err = ServeError::DeadlineExceeded {
                    arrival_ns: req.arrival_ns,
                    deadline_ns: req.deadline_ns,
                    now_ns: now,
                };
                outcomes.push((req, Err(err)));
            } else {
                live.push(req);
            }
        }
        if live.is_empty() {
            return outcomes;
        }
        let ids: Vec<u64> = live.iter().map(|r| r.id).collect();
        self.log.push(LogEvent::Batch { ids });
        let mut flat = Vec::with_capacity(live.len() * self.sample_len);
        for req in &live {
            flat.extend_from_slice(&req.input);
        }
        let mut batch_shape = vec![live.len()];
        batch_shape.extend_from_slice(&self.input_shape);
        let batch = match Tensor::from_vec(flat, &batch_shape) {
            Ok(b) => b,
            Err(e) => {
                // cannot happen for validated payloads; fail the members
                for req in live {
                    self.stats.failed += 1;
                    outcomes.push((req, Err(ServeError::from(e.clone()))));
                }
                return outcomes;
            }
        };
        let result = run_batch(&mut self.model, &batch, &mut self.rng);
        self.stats.batches += 1;
        match result {
            Ok((y, stats, retries)) => {
                self.stats.retries += u64::from(retries);
                self.stats.exec.merge(&stats);
                // clock: modeled batch latency + retry backoff
                let mut dt = self.config.energy.latency_ns(&stats).round() as u64;
                for attempt in 1..=retries {
                    dt = dt.saturating_add(backoff_for(attempt));
                }
                self.clock_ns = self.clock_ns.saturating_add(dt);
                let degraded = self.model.degraded_layers() > 0;
                self.health.observe(&stats, self.model.degraded_layers());
                let energy_each = self.config.energy.energy_pj(&stats) / live.len() as f64;
                let rows = y.as_slice();
                if rows.len() != live.len() * self.out_dim {
                    // a model returning a wrong-shaped batch output is a
                    // bug, surfaced typed instead of an index panic
                    let err = ServeError::Internal(format!(
                        "model returned {} values for a {}×{} batch",
                        rows.len(),
                        live.len(),
                        self.out_dim
                    ));
                    for req in live {
                        self.stats.failed += 1;
                        outcomes.push((req, Err(err.clone())));
                    }
                    return outcomes;
                }
                let now = self.clock_ns;
                for (row, req) in live.into_iter().enumerate() {
                    let late = now > req.arrival_ns.saturating_add(req.deadline_ns);
                    self.stats.completed += 1;
                    self.stats.late_completions += u64::from(late);
                    let response = Response {
                        output: rows[row * self.out_dim..(row + 1) * self.out_dim].to_vec(),
                        completed_ns: self.clock_ns,
                        latency_ns: self.clock_ns.saturating_sub(req.arrival_ns),
                        energy_pj: energy_each,
                        guard_violations: stats.guard.violations,
                        degraded,
                        late,
                    };
                    outcomes.push((req, Ok(response)));
                }
            }
            Err(e) => {
                for req in live {
                    self.stats.failed += 1;
                    outcomes.push((req, Err(e.clone())));
                }
            }
        }
        outcomes
    }

    /// Records a queue-depth observation for the high-water mark.
    pub fn note_queue_depth(&mut self, depth: usize) {
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(depth as u64);
    }

    /// Tears the executor down into its report: the model (for
    /// inspection), the full log, and the final counters.
    pub fn into_report(self) -> (M, RequestLog, ServeStats) {
        (self.model, self.log, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LinearServeModel;
    use crate::testing::{model, payload};

    fn executor(seed: u64) -> Executor<LinearServeModel> {
        Executor::new(model(seed), ServeConfig::standard(seed)).unwrap()
    }

    /// Registers `input` as the next request, arriving at the executor's
    /// current clock.
    fn admit(
        ex: &mut Executor<LinearServeModel>,
        input: Vec<f32>,
        deadline_ns: Option<u64>,
    ) -> Result<Pending> {
        let pending = Pending {
            id: ex.stats().admitted,
            input,
            arrival_ns: ex.clock_ns(),
            deadline_ns: deadline_ns.unwrap_or(1_000_000),
        };
        ex.register(&pending)?;
        Ok(pending)
    }

    #[test]
    fn batch_quota_aligns_only_under_surplus() {
        assert_eq!(SAMPLES_PER_THREAD, 2);
        // draining: partial batches always allowed
        assert_eq!(batch_quota(3, 8), 3);
        // surplus: rounded down to full blocks
        assert_eq!(batch_quota(9, 8), 8);
        assert_eq!(batch_quota(9, 7), 6);
        // a cap below one block still yields progress
        assert_eq!(batch_quota(10, 1), 1);
    }

    #[test]
    fn serve_completes_and_accounts() {
        let mut ex = executor(1);
        let a = admit(&mut ex, payload(0), None).unwrap();
        let b = admit(&mut ex, payload(1), None).unwrap();
        let outcomes = ex.serve(vec![a, b]);
        assert_eq!(outcomes.len(), 2);
        for (_, o) in &outcomes {
            let r = o.as_ref().unwrap();
            assert_eq!(r.output.len(), 2);
            assert!(r.latency_ns > 0);
        }
        assert!(ex.clock_ns() > 0);
        assert!(ex.stats().accounted());
        assert_eq!(ex.stats().completed, 2);
        assert_eq!(ex.log().len(), 3); // 2 admits + 1 batch
    }

    #[test]
    fn overdue_requests_expire_typed() {
        let mut ex = executor(2);
        // admitted at clock 0 with a 1 ns budget
        let a = admit(&mut ex, payload(0), Some(1)).unwrap();
        // force the clock past the deadline by serving another batch first
        let b = admit(&mut ex, payload(1), None).unwrap();
        ex.serve(vec![b]);
        let outcomes = ex.serve(vec![a]);
        assert!(matches!(
            outcomes[0].1,
            Err(ServeError::DeadlineExceeded { .. })
        ));
        assert!(ex.stats().accounted());
        assert_eq!(ex.stats().expired, 1);
    }

    #[test]
    fn bad_payload_is_rejected_before_queueing() {
        let mut ex = executor(3);
        assert!(matches!(
            admit(&mut ex, vec![1.0, 2.0], None),
            Err(ServeError::BadRequest(_))
        ));
        // one non-finite request among valid ones: rejected alone, and
        // the valid ones batch and complete
        let a = admit(&mut ex, payload(0), None).unwrap();
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            assert!(matches!(
                admit(&mut ex, vec![0.5, bad, 0.0], None),
                Err(ServeError::BadRequest(_))
            ));
        }
        let b = admit(&mut ex, payload(1), None).unwrap();
        let outcomes = ex.serve(vec![a, b]);
        assert!(outcomes.iter().all(|(_, o)| o.is_ok()));
        assert_eq!(ex.stats().admitted, 2);
        assert_eq!(ex.stats().completed, 2);
        assert!(ex.stats().accounted());
    }

    #[test]
    fn chaos_is_logged_in_order() {
        let mut ex = executor(4);
        let a = admit(&mut ex, payload(0), None).unwrap();
        ex.apply_chaos(0.25).unwrap();
        ex.serve(vec![a]);
        let kinds: Vec<_> = ex
            .log()
            .events()
            .iter()
            .map(|e| match e {
                LogEvent::Admit { .. } => "admit",
                LogEvent::Chaos { .. } => "chaos",
                LogEvent::Reconfigure { .. } => "reconfigure",
                LogEvent::Expire { .. } => "expire",
                LogEvent::Batch { .. } => "batch",
            })
            .collect();
        assert_eq!(kinds, vec!["admit", "chaos", "batch"]);
        assert_eq!(ex.stats().chaos_events, 1);
    }
}
