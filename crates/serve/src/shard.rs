//! Sharded serving: one or N deployments behind a deterministic router,
//! with health-driven failover and live reconfiguration. A single
//! deployment is a set of one; nothing else in the crate owns an
//! [`Executor`].
//!
//! A [`ShardSet`] owns one [`Executor`] per deployment ("shard"), each
//! with its own queue, virtual clock, request log, health tracker, and
//! RNG stream seeded by the seed rule (`serve_seed`). A stateless
//! [`Router`] maps every request id onto the currently eligible shards,
//! so placement is a pure function of `(seed, id, eligible set)` —
//! identical live and in simulation. The set-level accounting identity
//! `admitted == completed + expired + failed + cancelled` is maintained
//! across every shard transition:
//!
//! - **Kill** (chaos or operator): the shard goes [`ShardStatus::Down`];
//!   its queued requests *fail over* — re-routed to surviving shards
//!   under the [`RetryPolicy`], each hop charging
//!   the retry backoff to the receiving shard's clock, resolving
//!   [`ServeError::Closed`] only when the budget or the shard pool is
//!   exhausted. Queued mutations are dropped visibly (chaos failures).
//! - **Quarantine**: in a set of two or more, a shard whose health
//!   trips `Shedding` stops admitting, evicts its queue through the
//!   same failover path, and re-enters service once idle decay brings
//!   the violation EMA back down. A set of one has nowhere to fail over
//!   to: its shard stays Up, answers `Shed`, and serves its backlog
//!   (the quarantine rule, `ShardSet::quarantine_if_shedding`).
//! - **Drain**: admissions stop, the backlog is served, the shard
//!   returns to service.
//! - **Reconfigure**: queued in stream order on the target shard, so it
//!   applies *between* batches — the executing batch window drains
//!   first — and lands in that shard's log as a `Reconfigure` record.
//!
//! Per-shard logs replay independently ([`replay_shards`]): a failed-over
//! request's payload is re-registered on its new shard, so each log is
//! self-contained and the concatenated replay reproduces every completed
//! response bitwise at any engine thread count.
//!
//! Two drivers own a set: the threaded
//! [`ShardServer`](crate::ShardServer) for live clients and the
//! discrete-event [`simulate_shards`](crate::simulate_shards) loop for
//! load sweeps in virtual time. Concurrency in the live server can only
//! reorder admissions, which the logs capture.

use std::collections::VecDeque;

use crate::chaos::ChaosAction;
use crate::config::{RetryPolicy, ServeConfig};
use crate::executor::{batch_quota, Executor, Pending, Response, ServeStats};
use crate::health::HealthState;
use crate::log::RequestLog;
use crate::model::ServeModel;
use crate::router::{shard_seed, RoutePolicy, Router};
use crate::{Result, ServeError};

/// The seed rule: the serving seed of shard `shard` in a set of
/// `n_shards` sharing the set seed `seed`. A set of one serves on the set
/// seed itself, exactly like a lone deployment; larger sets decorrelate
/// their shards through [`shard_seed`]. Live serving and
/// [`replay_shards`] both key off this.
fn serve_seed(seed: u64, shard: usize, n_shards: usize) -> u64 {
    if n_shards == 1 {
        seed
    } else {
        shard_seed(seed, shard)
    }
}

/// A resolved request: `(id, outcome)`.
pub type ShardOutcome = (u64, Result<Response>);

/// Lifecycle of one shard inside a [`ShardSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStatus {
    /// Serving and admitting.
    Up,
    /// Not admitting; serving down its backlog, then back to [`Up`].
    ///
    /// [`Up`]: ShardStatus::Up
    Draining,
    /// Health tripped `Shedding` in a set of two or more: not
    /// admitting, queue evicted; idle decay returns it to service.
    Quarantined,
    /// Killed. Frozen until a `Revive`.
    Down,
}

enum ShardWork {
    Request { pending: Pending, attempts: u32 },
    Upset { rate: f32 },
    Reconfigure { pulses: Vec<usize> },
}

struct Shard<M> {
    executor: Executor<M>,
    status: ShardStatus,
    queue: VecDeque<ShardWork>,
    /// Queued *requests* (mutations occupy no admission slot).
    depth: usize,
}

impl<M: ServeModel> Shard<M> {
    fn has_requests(&self) -> bool {
        self.queue
            .iter()
            .any(|w| matches!(w, ShardWork::Request { .. }))
    }

    fn routable(&self) -> bool {
        self.status == ShardStatus::Up && self.executor.health_state() != HealthState::Shedding
    }
}

/// Per-shard teardown record.
pub struct ShardRecord<M> {
    /// The shard's model, with whatever damage serving left on it.
    pub model: M,
    /// The shard's append-only log. Replays independently on the
    /// shard's serving seed — see [`replay_shards`].
    pub log: RequestLog,
    /// Shard-local counters. Request accounting here is *shard-local
    /// registration*: a failed-over request is admitted on every shard
    /// that queued it but resolves on exactly one, so only the
    /// set-level stats satisfy the accounting identity.
    pub stats: ServeStats,
    /// The shard's status at teardown.
    pub status: ShardStatus,
}

/// Final state of a [`ShardSet`].
pub struct ShardSetReport<M> {
    /// Set-level counters; `stats.accounted()` holds.
    pub stats: ServeStats,
    /// Per-shard records, in shard order.
    pub shards: Vec<ShardRecord<M>>,
}

/// One deployment, or N replicas, behind a deterministic router. See
/// the module docs for the full semantics.
pub struct ShardSet<M> {
    shards: Vec<Shard<M>>,
    router: Router,
    config: ServeConfig,
    /// Set-level request accounting (authoritative; shard-local stats
    /// double-count failed-over admissions by design), failovers, and
    /// the control-plane chaos failures (bad target, dropped mutations)
    /// on top of the per-shard injection failures. The execution
    /// counters stay zero here: [`ShardSet::stats`] sums them over the
    /// shards.
    counts: ServeStats,
}

impl<M: ServeModel> ShardSet<M> {
    /// Builds a shard set of `models` — one deployment, or N replicas —
    /// under `config` (applied per shard; `queue_capacity` bounds *each*
    /// shard's queue) routed by `policy`. Shard `i`'s executor is seeded
    /// with the set seed itself in a set of one, and with
    /// [`shard_seed`]`(config.seed, i)` in larger sets.
    ///
    /// # Errors
    ///
    /// Rejects an empty model list or mismatched model shapes, and
    /// propagates configuration errors.
    pub fn new(models: Vec<M>, config: ServeConfig, policy: RoutePolicy) -> Result<Self> {
        if models.is_empty() {
            return Err(ServeError::BadRequest(
                "a shard set needs at least one model".into(),
            ));
        }
        let router = Router::new(config.seed, policy);
        let n_shards = models.len();
        let mut shards = Vec::with_capacity(n_shards);
        let mut shape: Option<(Vec<usize>, usize)> = None;
        for (i, model) in models.into_iter().enumerate() {
            let this = (model.input_shape(), model.output_dim());
            match &shape {
                None => shape = Some(this),
                Some(first) if *first != this => {
                    return Err(ServeError::BadRequest(format!(
                        "shard {i} shape {this:?} differs from shard 0's {first:?}"
                    )));
                }
                Some(_) => {}
            }
            let mut shard_config = config.clone();
            shard_config.seed = serve_seed(config.seed, i, n_shards);
            shards.push(Shard {
                executor: Executor::new(model, shard_config)?,
                status: ShardStatus::Up,
                queue: VecDeque::new(),
                depth: 0,
            });
        }
        Ok(Self {
            shards,
            router,
            config,
            counts: ServeStats::default(),
        })
    }

    /// Number of shards (fixed for the set's lifetime).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `shard`'s current status, if it exists.
    pub fn status(&self, shard: usize) -> Option<ShardStatus> {
        self.shards.get(shard).map(|s| s.status)
    }

    /// Shard `shard`'s current health state, if it exists.
    pub fn health_state(&self, shard: usize) -> Option<HealthState> {
        self.shards.get(shard).map(|s| s.executor.health_state())
    }

    /// The next dense request id (equals the set-level admitted count;
    /// rejected submissions don't burn ids).
    pub fn next_request_id(&self) -> u64 {
        self.counts.admitted
    }

    /// Whether any shard currently accepts admissions (ignores queue
    /// depth — a routable-but-full set rejects `QueueFull`, not `Shed`).
    pub fn any_routable(&self) -> bool {
        self.shards.iter().any(Shard::routable)
    }

    /// Total queued requests across shards.
    pub fn total_depth(&self) -> usize {
        self.shards.iter().map(|s| s.depth).sum()
    }

    /// Whether any shard still holds queued work (requests or
    /// mutations).
    pub fn has_queued_work(&self) -> bool {
        self.shards.iter().any(|s| !s.queue.is_empty())
    }

    /// The earliest virtual clock among shards that can still serve —
    /// the soonest instant a new request could start executing. Falls
    /// back to the max over all shards when everything is down.
    pub fn min_clock_ns(&self) -> u64 {
        self.shards
            .iter()
            .filter(|s| s.status != ShardStatus::Down)
            .map(|s| s.executor.clock_ns())
            .min()
            .unwrap_or_else(|| {
                self.shards
                    .iter()
                    .map(|s| s.executor.clock_ns())
                    .max()
                    .unwrap_or(0)
            })
    }

    /// Shards a new or failed-over request may be queued on right now.
    fn eligible(&self) -> Vec<usize> {
        self.shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.routable() && s.depth < self.config.queue_capacity)
            .map(|(i, _)| i)
            .collect()
    }

    fn note_depth(&mut self, shard: usize) {
        let total = self.total_depth() as u64;
        self.counts.max_queue_depth = self.counts.max_queue_depth.max(total);
        let depth = self.shards[shard].depth;
        self.shards[shard].executor.note_queue_depth(depth);
    }

    fn count_outcome(&mut self, outcome: &Result<Response>) {
        match outcome {
            Ok(r) => {
                self.counts.completed += 1;
                self.counts.late_completions += u64::from(r.late);
            }
            Err(ServeError::DeadlineExceeded { .. }) => self.counts.expired += 1,
            Err(ServeError::Closed) => self.counts.cancelled += 1,
            Err(_) => self.counts.failed += 1,
        }
    }

    /// Routes and queues one externally stamped request. On success the
    /// request is registered in the target shard's log (payload
    /// included) and the set-level admission is counted once.
    ///
    /// # Errors
    ///
    /// [`ServeError::Shed`] when no shard is routable,
    /// [`ServeError::QueueFull`] when every routable shard is at
    /// capacity, [`ServeError::BadRequest`] for a payload mismatch.
    /// Rejections are counted; nothing is queued.
    pub fn submit(&mut self, pending: Pending) -> Result<usize> {
        if !self.any_routable() {
            self.counts.rejected_shed += 1;
            return Err(ServeError::Shed);
        }
        let eligible = self.eligible();
        if eligible.is_empty() {
            self.counts.rejected_queue_full += 1;
            return Err(ServeError::QueueFull {
                capacity: self.config.queue_capacity,
            });
        }
        let Some(target) = self.router.route(pending.id, &eligible) else {
            // unreachable (eligible is non-empty); typed, not a panic
            return Err(ServeError::Internal("router returned no shard".into()));
        };
        self.shards[target].executor.register(&pending)?;
        self.counts.admitted += 1;
        self.shards[target].queue.push_back(ShardWork::Request {
            pending,
            attempts: 0,
        });
        self.shards[target].depth += 1;
        self.note_depth(target);
        Ok(target)
    }

    /// Re-queues an evicted request on a surviving shard, or resolves it
    /// typed when the retry budget or the shard pool is exhausted.
    fn reroute(&mut self, pending: Pending, attempts: u32) -> Option<ShardOutcome> {
        if attempts > self.config.retry.max_retries {
            self.counts.cancelled += 1;
            return Some((pending.id, Err(ServeError::Closed)));
        }
        let eligible = self.eligible();
        let Some(target) = self.router.route(pending.id, &eligible) else {
            self.counts.cancelled += 1;
            return Some((pending.id, Err(ServeError::Closed)));
        };
        // self-contained logs: the new shard records the payload too
        if let Err(e) = self.shards[target].executor.register(&pending) {
            self.counts.failed += 1;
            return Some((pending.id, Err(e)));
        }
        self.counts.failovers += 1;
        // the failover hop charges the retry backoff to the receiver
        let backoff = self.config.retry.backoff_for(attempts);
        let clock = self.shards[target].executor.clock_ns();
        self.shards[target]
            .executor
            .advance_clock_to(clock.saturating_add(backoff));
        self.shards[target]
            .queue
            .push_back(ShardWork::Request { pending, attempts });
        self.shards[target].depth += 1;
        self.note_depth(target);
        None
    }

    /// Empties shard `k`'s queue, returning its requests with their
    /// attempt counts; queued mutations are dropped visibly (counted as
    /// chaos failures).
    fn drain(&mut self, k: usize) -> Vec<(Pending, u32)> {
        self.shards[k].depth = 0;
        let mut requests = Vec::new();
        for work in std::mem::take(&mut self.shards[k].queue) {
            match work {
                ShardWork::Upset { .. } | ShardWork::Reconfigure { .. } => {
                    self.counts.chaos_failures += 1;
                }
                ShardWork::Request { pending, attempts } => requests.push((pending, attempts)),
            }
        }
        requests
    }

    /// Empties shard `k`'s queue: requests fail over, mutations are
    /// dropped visibly.
    fn evict(&mut self, k: usize) -> Vec<ShardOutcome> {
        self.drain(k)
            .into_iter()
            .filter_map(|(pending, attempts)| self.reroute(pending, attempts + 1))
            .collect()
    }

    /// Applies one chaos/control action. Failures (out-of-range target,
    /// mutating a down shard) are counted as chaos failures *and*
    /// returned typed — never silent either way. Kill and Degrade may
    /// resolve evicted requests; those outcomes are returned.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for an invalid target.
    pub fn apply(&mut self, action: &ChaosAction) -> Result<Vec<ShardOutcome>> {
        match self.apply_inner(action) {
            Ok(out) => Ok(out),
            Err(e) => {
                self.counts.chaos_failures += 1;
                Err(e)
            }
        }
    }

    fn apply_inner(&mut self, action: &ChaosAction) -> Result<Vec<ShardOutcome>> {
        let k = action.shard();
        if k >= self.shards.len() {
            return Err(ServeError::BadRequest(format!(
                "chaos targets shard {k}, set has {}",
                self.shards.len()
            )));
        }
        match action {
            ChaosAction::Kill { .. } => {
                if self.shards[k].status == ShardStatus::Down {
                    return Ok(Vec::new()); // idempotent
                }
                self.shards[k].status = ShardStatus::Down;
                Ok(self.evict(k))
            }
            ChaosAction::Revive { .. } => {
                if self.shards[k].status == ShardStatus::Down {
                    self.shards[k].status = ShardStatus::Up;
                }
                Ok(Vec::new())
            }
            ChaosAction::Drain { .. } => {
                if self.shards[k].status == ShardStatus::Down {
                    return Err(ServeError::BadRequest(format!(
                        "cannot drain down shard {k}"
                    )));
                }
                if self.shards[k].has_requests() {
                    self.shards[k].status = ShardStatus::Draining;
                }
                Ok(Vec::new())
            }
            ChaosAction::Upset { rate, .. } => {
                if self.shards[k].status == ShardStatus::Down {
                    return Err(ServeError::BadRequest(format!(
                        "cannot upset down shard {k}"
                    )));
                }
                self.shards[k]
                    .queue
                    .push_back(ShardWork::Upset { rate: *rate });
                Ok(Vec::new())
            }
            ChaosAction::Reconfigure { pulses, .. } => {
                if self.shards[k].status == ShardStatus::Down {
                    return Err(ServeError::BadRequest(format!(
                        "cannot reconfigure down shard {k}"
                    )));
                }
                self.shards[k].queue.push_back(ShardWork::Reconfigure {
                    pulses: pulses.clone(),
                });
                Ok(Vec::new())
            }
            ChaosAction::Degrade { ema, .. } => {
                if self.shards[k].status == ShardStatus::Down {
                    return Err(ServeError::BadRequest(format!(
                        "cannot degrade down shard {k}"
                    )));
                }
                self.shards[k].executor.force_health(*ema);
                Ok(self.quarantine_if_shedding(k))
            }
        }
    }

    /// The quarantine rule, applied whenever shard `s`'s health moves: an
    /// Up shard whose health has tripped `Shedding` is quarantined — its
    /// queue evicted for failover, idle decay to bring it back — but only
    /// in a set of two or more. A set of one has no other shard to take
    /// its work, so its shard stays Up: it answers `Shed` to new work and
    /// serves its backlog, exactly like a lone deployment. Returns the
    /// outcomes of evicted requests that could not fail over.
    fn quarantine_if_shedding(&mut self, s: usize) -> Vec<ShardOutcome> {
        if self.shards.len() == 1
            || self.shards[s].status != ShardStatus::Up
            || self.shards[s].executor.health_state() != HealthState::Shedding
        {
            return Vec::new();
        }
        self.shards[s].status = ShardStatus::Quarantined;
        self.evict(s)
    }

    /// Serves shard `s` one step: applies leading queued mutations, then
    /// at most one batch. Returns `(made_progress, resolved)`.
    fn serve_shard_once(&mut self, s: usize, horizon: Option<u64>) -> (bool, Vec<ShardOutcome>) {
        let mut out = Vec::new();
        let mut progress = false;
        if self.shards[s].status == ShardStatus::Down {
            return (false, out);
        }
        if let Some(t) = horizon {
            if self.shards[s].executor.clock_ns() >= t {
                return (false, out);
            }
        }
        // apply mutations queued ahead of the next request, in order
        while matches!(
            self.shards[s].queue.front(),
            Some(ShardWork::Upset { .. } | ShardWork::Reconfigure { .. })
        ) {
            match self.shards[s].queue.pop_front() {
                Some(ShardWork::Upset { rate }) => {
                    // injection failures are counted by the executor
                    let _ = self.shards[s].executor.apply_chaos(rate);
                    progress = true;
                }
                Some(ShardWork::Reconfigure { pulses }) => {
                    // a rejected swap keeps the old encoding, counted
                    if self.shards[s].executor.apply_reconfigure(&pulses).is_err() {
                        self.counts.chaos_failures += 1;
                    }
                    progress = true;
                }
                Some(other) => {
                    self.shards[s].queue.push_front(other);
                    break;
                }
                None => break,
            }
        }
        let run = self.shards[s]
            .queue
            .iter()
            .take_while(|w| matches!(w, ShardWork::Request { .. }))
            .count();
        if run == 0 {
            if self.shards[s].queue.is_empty() {
                if let Some(t) = horizon {
                    self.shards[s].executor.advance_clock_to(t);
                }
            }
            return (progress, out);
        }
        let take = batch_quota(run, self.config.max_batch, self.config.block_align);
        let mut batch = Vec::with_capacity(take);
        for _ in 0..take {
            if let Some(ShardWork::Request { pending, .. }) = self.shards[s].queue.pop_front() {
                batch.push(pending);
            }
        }
        self.shards[s].depth -= batch.len();
        let resolved = self.shards[s].executor.serve(batch);
        progress = true;
        for (req, outcome) in resolved {
            self.count_outcome(&outcome);
            out.push((req.id, outcome));
        }
        // health observed on that batch may quarantine the shard
        out.extend(self.quarantine_if_shedding(s));
        (progress, out)
    }

    /// Recovery transitions between serving passes: quarantined shards
    /// observe one idle decay tick (re-entering service once below the
    /// shed threshold), drained shards with empty backlogs return Up.
    fn settle(&mut self) {
        for s in 0..self.shards.len() {
            if self.shards[s].status == ShardStatus::Quarantined
                && self.shards[s].executor.decay_health() != HealthState::Shedding
            {
                self.shards[s].status = ShardStatus::Up;
            }
            if self.shards[s].status == ShardStatus::Draining && !self.shards[s].has_requests() {
                self.shards[s].status = ShardStatus::Up;
            }
        }
    }

    /// Serves queued work on every shard until each has either drained
    /// or reached `horizon` on its own clock (idle shards advance to the
    /// horizon). Runs to a fixpoint so failover cascades settle within
    /// the call. Returns every resolved outcome.
    pub fn serve_until(&mut self, horizon: Option<u64>) -> Vec<ShardOutcome> {
        let mut out = Vec::new();
        loop {
            let mut progressed = false;
            for s in 0..self.shards.len() {
                loop {
                    let (p, resolved) = self.serve_shard_once(s, horizon);
                    out.extend(resolved);
                    if p {
                        progressed = true;
                    } else {
                        break;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        self.settle();
        out
    }

    /// One bounded serving pass — at most one batch per shard — for the
    /// live scheduler, which must return to its inbox between batches.
    pub fn serve_round(&mut self) -> Vec<ShardOutcome> {
        let mut out = Vec::new();
        for s in 0..self.shards.len() {
            let (_, resolved) = self.serve_shard_once(s, None);
            out.extend(resolved);
        }
        self.settle();
        out
    }

    /// Kill-style teardown: resolves every queued request with
    /// [`ServeError::Closed`] and drops queued mutations (counted).
    pub fn cancel_queued(&mut self) -> Vec<ShardOutcome> {
        let mut out = Vec::new();
        for s in 0..self.shards.len() {
            for (pending, _) in self.drain(s) {
                self.counts.cancelled += 1;
                out.push((pending.id, Err(ServeError::Closed)));
            }
        }
        out
    }

    /// Accounts `n` requests that passed the live server's admission but
    /// were killed before routing: they count admitted *and* cancelled,
    /// keeping the identity exact across a kill.
    pub fn cancel_unrouted(&mut self, n: u64) {
        self.counts.admitted += n;
        self.counts.cancelled += n;
    }

    /// Set-level counters: request accounting from the set (the
    /// authoritative identity), execution counters summed over shards.
    pub fn stats(&self) -> ServeStats {
        let mut stats = self.counts;
        for shard in &self.shards {
            let s = shard.executor.stats();
            stats.batches += s.batches;
            stats.retries += s.retries;
            stats.chaos_events += s.chaos_events;
            stats.chaos_upsets += s.chaos_upsets;
            stats.chaos_failures += s.chaos_failures;
            stats.reconfigures += s.reconfigures;
            stats.exec.merge(&s.exec);
        }
        stats
    }

    /// Tears the set down into per-shard records plus the set-level
    /// stats.
    pub fn into_report(self) -> ShardSetReport<M> {
        let stats = self.stats();
        let shards = self
            .shards
            .into_iter()
            .map(|s| {
                let status = s.status;
                let (model, log, stats) = s.executor.into_report();
                ShardRecord {
                    model,
                    log,
                    stats,
                    status,
                }
            })
            .collect();
        ShardSetReport { stats, shards }
    }
}

/// Replays every shard's log against freshly deployed `models` (same
/// order and deployment seeds as the original set; one model and one log
/// for a set of one), returning `(id, output_row)` for every batched
/// request, sorted by id. With the set seed and retry policy of the
/// original run the rows are bitwise identical to the live responses, at
/// any engine thread count — a failed-over request replays on the shard
/// that actually served it.
///
/// # Errors
///
/// Rejects a model/log count mismatch and propagates per-shard replay
/// errors.
pub fn replay_shards<M: ServeModel>(
    models: &mut [M],
    seed: u64,
    retry: &RetryPolicy,
    logs: &[RequestLog],
) -> Result<Vec<(u64, Vec<f32>)>> {
    if models.len() != logs.len() {
        return Err(ServeError::BadRequest(format!(
            "{} models for {} shard logs",
            models.len(),
            logs.len()
        )));
    }
    let n_shards = models.len();
    let mut all = Vec::new();
    for (i, (model, log)) in models.iter_mut().zip(logs).enumerate() {
        all.extend(crate::log::replay(
            model,
            serve_seed(seed, i, n_shards),
            retry,
            log,
        )?);
    }
    all.sort_by_key(|(id, _)| *id);
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LinearServeModel;
    use crate::server::{Handle, ShardServer};
    use crate::testing::{model, models, payload};
    use membit_tensor::{Rng, Tensor};
    use membit_xbar::{GuardPolicy, XbarConfig};

    fn submit_n(set: &mut ShardSet<LinearServeModel>, n: usize, at_ns: u64) {
        for i in 0..n {
            let pending = Pending {
                id: set.next_request_id(),
                input: payload(i),
                arrival_ns: at_ns,
                deadline_ns: 10_000_000,
            };
            set.submit(pending).unwrap();
        }
    }

    #[test]
    fn set_serves_across_shards_and_accounts() {
        let mut set =
            ShardSet::new(models(3, 1), ServeConfig::standard(7), RoutePolicy::Rendezvous)
                .unwrap();
        submit_n(&mut set, 12, 0);
        let out = set.serve_until(None);
        assert_eq!(out.len(), 12);
        assert!(out.iter().all(|(_, r)| r.is_ok()));
        let stats = set.stats();
        assert!(stats.accounted(), "{stats:?}");
        assert_eq!(stats.admitted, 12);
        assert_eq!(stats.completed, 12);
        // rendezvous spread: at least two shards saw batches
        let busy = (0..3)
            .filter(|&s| set.shards[s].executor.stats().batches > 0)
            .count();
        assert!(busy >= 2, "load concentrated on {busy} shard(s)");
    }

    #[test]
    fn kill_fails_over_queued_requests_with_zero_drops() {
        let mut cfg = ServeConfig::standard(11);
        cfg.max_batch = 2;
        cfg.block_align = 1;
        let mut set = ShardSet::new(models(3, 2), cfg, RoutePolicy::RoundRobin).unwrap();
        submit_n(&mut set, 12, 0);
        // kill shard 2 before anything serves: its queue fails over
        let evicted = set.apply(&ChaosAction::Kill { shard: 2 }).unwrap();
        let out = set.serve_until(None);
        let stats = set.stats();
        assert!(stats.accounted(), "{stats:?}");
        assert!(stats.failovers > 0, "round-robin put work on shard 2");
        assert_eq!(
            evicted.len() + out.len(),
            12,
            "every admitted request resolved exactly once"
        );
        assert_eq!(stats.completed + stats.cancelled, 12);
        assert_eq!(set.status(2), Some(ShardStatus::Down));
    }

    #[test]
    fn killing_every_shard_cancels_typed_and_sheds_new_work() {
        let mut set =
            ShardSet::new(models(2, 3), ServeConfig::standard(5), RoutePolicy::Rendezvous)
                .unwrap();
        submit_n(&mut set, 4, 0);
        let mut resolved = Vec::new();
        resolved.extend(set.apply(&ChaosAction::Kill { shard: 0 }).unwrap());
        resolved.extend(set.apply(&ChaosAction::Kill { shard: 1 }).unwrap());
        // with no survivors every queued request cancels typed
        assert_eq!(resolved.len(), 4);
        assert!(resolved
            .iter()
            .all(|(_, r)| matches!(r, Err(ServeError::Closed))));
        let pending = Pending {
            id: set.next_request_id(),
            input: payload(0),
            arrival_ns: 0,
            deadline_ns: 1_000,
        };
        assert!(matches!(set.submit(pending), Err(ServeError::Shed)));
        let stats = set.stats();
        assert!(stats.accounted(), "{stats:?}");
        assert_eq!(stats.cancelled, 4);
        assert_eq!(stats.rejected_shed, 1);
    }

    #[test]
    fn degrade_quarantines_then_idle_decay_recovers() {
        let mut set =
            ShardSet::new(models(2, 4), ServeConfig::standard(9), RoutePolicy::Rendezvous)
                .unwrap();
        set.apply(&ChaosAction::Degrade {
            shard: 0,
            ema: 0.9,
        })
        .unwrap();
        assert_eq!(set.status(0), Some(ShardStatus::Quarantined));
        assert_eq!(set.health_state(0), Some(HealthState::Shedding));
        // idle decay ticks (one per serve pass) bring it back
        for _ in 0..40 {
            set.serve_round();
            if set.status(0) == Some(ShardStatus::Up) {
                break;
            }
        }
        assert_eq!(set.status(0), Some(ShardStatus::Up));
    }

    #[test]
    fn lone_shard_sheds_but_serves_its_backlog() {
        // the quarantine rule: a set of one has nowhere to fail over to,
        // so its shard stays Up, sheds new work and serves its backlog
        let mut set = ShardSet::new(
            models(1, 4),
            ServeConfig::standard(9),
            RoutePolicy::Rendezvous,
        )
        .unwrap();
        submit_n(&mut set, 4, 0);
        let evicted = set
            .apply(&ChaosAction::Degrade { shard: 0, ema: 0.9 })
            .unwrap();
        assert!(evicted.is_empty());
        assert_eq!(set.status(0), Some(ShardStatus::Up));
        assert_eq!(set.health_state(0), Some(HealthState::Shedding));
        let pending = Pending {
            id: set.next_request_id(),
            input: payload(0),
            arrival_ns: 0,
            deadline_ns: 1_000,
        };
        assert!(matches!(set.submit(pending), Err(ServeError::Shed)));
        let out = set.serve_until(None);
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|(_, r)| r.is_ok()));
        let stats = set.stats();
        assert!(stats.accounted(), "{stats:?}");
        assert_eq!(
            (stats.completed, stats.rejected_shed, stats.failovers),
            (4, 1, 0)
        );
    }

    #[test]
    fn set_of_one_serves_on_the_set_seed() {
        // the seed rule: a lone shard's log replays on the set seed
        // itself, a larger set's on the derived shard seeds
        let cfg = ServeConfig::standard(17);
        for n_shards in [1, 2] {
            let mut set =
                ShardSet::new(models(n_shards, 8), cfg.clone(), RoutePolicy::RoundRobin).unwrap();
            submit_n(&mut set, 4, 0);
            let live = set.serve_until(None);
            let log = &set.into_report().shards[0].log;
            let seed = if n_shards == 1 { 17 } else { shard_seed(17, 0) };
            let mut fresh = models(1, 8).remove(0);
            let replayed = crate::log::replay(&mut fresh, seed, &cfg.retry, log).unwrap();
            for (id, row) in replayed {
                let (_, r) = live.iter().find(|(i, _)| *i == id).unwrap();
                assert_eq!(r.as_ref().unwrap().output, row, "{n_shards} shard(s)");
            }
        }
    }

    #[test]
    fn reconfigure_is_queued_in_stream_order_and_logged() {
        let mut cfg = ServeConfig::standard(13);
        cfg.max_batch = 2;
        cfg.block_align = 1;
        let mut set = ShardSet::new(models(1, 5), cfg, RoutePolicy::Rendezvous).unwrap();
        submit_n(&mut set, 2, 0);
        set.apply(&ChaosAction::Reconfigure {
            shard: 0,
            pulses: vec![12],
        })
        .unwrap();
        submit_n(&mut set, 2, 0);
        set.serve_until(None);
        let stats = set.stats();
        assert_eq!(stats.reconfigures, 1);
        assert!(stats.accounted());
        let report = set.into_report();
        // the swap sits between the two Batch records in the log
        let kinds: Vec<&str> = report.shards[0]
            .log
            .events()
            .iter()
            .map(|e| match e {
                crate::log::LogEvent::Admit { .. } => "admit",
                crate::log::LogEvent::Chaos { .. } => "chaos",
                crate::log::LogEvent::Reconfigure { .. } => "reconfigure",
                crate::log::LogEvent::Expire { .. } => "expire",
                crate::log::LogEvent::Batch { .. } => "batch",
            })
            .collect();
        let reconfigure_at = kinds.iter().position(|k| *k == "reconfigure").unwrap();
        let first_batch = kinds.iter().position(|k| *k == "batch").unwrap();
        let last_batch = kinds.iter().rposition(|k| *k == "batch").unwrap();
        assert!(first_batch < reconfigure_at && reconfigure_at < last_batch);
    }

    #[test]
    fn sharded_replay_is_bitwise() {
        let seed = 21u64;
        let mut cfg = ServeConfig::standard(seed);
        cfg.max_batch = 2;
        cfg.block_align = 1;
        let mut set = ShardSet::new(models(3, 6), cfg.clone(), RoutePolicy::Rendezvous).unwrap();
        submit_n(&mut set, 6, 0);
        set.apply(&ChaosAction::Upset {
            shard: 0,
            rate: 0.2,
        })
        .unwrap();
        set.apply(&ChaosAction::Reconfigure {
            shard: 1,
            pulses: vec![12],
        })
        .unwrap();
        submit_n(&mut set, 6, 0);
        let out = set.serve_until(None);
        let mut live: Vec<(u64, Vec<f32>)> = out
            .iter()
            .filter_map(|(id, r)| r.as_ref().ok().map(|resp| (*id, resp.output.clone())))
            .collect();
        live.sort_by_key(|(id, _)| *id);
        let report = set.into_report();
        let logs: Vec<RequestLog> = report.shards.iter().map(|s| s.log.clone()).collect();
        let mut fresh = models(3, 6);
        let replayed = replay_shards(&mut fresh, seed, &cfg.retry, &logs).unwrap();
        assert_eq!(live.len(), replayed.len());
        for ((ia, ra), (ib, rb)) in live.iter().zip(&replayed) {
            assert_eq!(ia, ib);
            let ba: Vec<u32> = ra.iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u32> = rb.iter().map(|v| v.to_bits()).collect();
            assert_eq!(ba, bb, "request {ia} diverged in replay");
        }
    }

    #[test]
    fn shard_server_serves_kills_and_accounts() {
        let mut cfg = ServeConfig::standard(31);
        cfg.max_batch = 2;
        cfg.block_align = 1;
        let server =
            ShardServer::start(models(3, 7), cfg, RoutePolicy::Rendezvous).unwrap();
        let handles: Vec<Handle> = (0..12)
            .map(|i| server.submit(payload(i), None).unwrap())
            .collect();
        server.chaos(ChaosAction::Kill { shard: 2 }).unwrap();
        let mut completed = 0u64;
        let mut cancelled = 0u64;
        for h in handles {
            match h.wait() {
                Ok(r) => {
                    assert_eq!(r.output.len(), 2);
                    completed += 1;
                }
                Err(ServeError::Closed) => cancelled += 1,
                Err(e) => panic!("unexpected outcome: {e}"),
            }
        }
        let report = server.shutdown().unwrap();
        assert!(report.stats.accounted(), "{:?}", report.stats);
        assert_eq!(completed, report.stats.completed);
        assert_eq!(cancelled, report.stats.cancelled);
        assert_eq!(completed + cancelled, 12);
        assert_eq!(report.shards.len(), 3);
    }

    #[test]
    fn shard_server_rejects_non_finite_payload_and_batchmates_complete() {
        let mut cfg = ServeConfig::standard(35);
        cfg.max_batch = 4;
        cfg.block_align = 1;
        let server = ShardServer::start(models(3, 9), cfg, RoutePolicy::Rendezvous).unwrap();
        let mut handles = Vec::new();
        for i in 0..9 {
            if i == 4 {
                let mut bad = payload(i);
                bad[0] = f32::INFINITY;
                assert!(matches!(
                    server.submit(bad, None),
                    Err(ServeError::BadRequest(_))
                ));
            } else {
                handles.push(server.submit(payload(i), None).unwrap());
            }
        }
        for h in handles {
            assert_eq!(h.wait().unwrap().output.len(), 2);
        }
        let report = server.shutdown().unwrap();
        assert!(report.stats.accounted(), "{:?}", report.stats);
        assert_eq!(report.stats.admitted, 8);
        assert_eq!(report.stats.completed, 8);
        assert_eq!(report.stats.failed, 0);
    }

    #[test]
    fn shard_server_rejects_bad_actions_typed() {
        let server = ShardServer::start(
            models(2, 8),
            ServeConfig::standard(33),
            RoutePolicy::RoundRobin,
        )
        .unwrap();
        assert!(matches!(
            server.chaos(ChaosAction::Upset {
                shard: 0,
                rate: 2.0
            }),
            Err(ServeError::BadRequest(_))
        ));
        // in-range parameters but a bad target: accepted at submit,
        // counted as a chaos failure at application
        server.chaos(ChaosAction::Kill { shard: 9 }).unwrap();
        let report = server.shutdown().unwrap();
        assert!(report.stats.chaos_failures >= 1);
        assert!(report.stats.accounted());
    }

    #[test]
    fn mismatched_shard_shapes_are_rejected() {
        let w = Tensor::from_fn(&[2, 4], |i| if i % 2 == 0 { 1.0 } else { -1.0 });
        let cfg = XbarConfig::functional(0.02).with_guard(GuardPolicy::standard());
        let odd = LinearServeModel::program(&w, &cfg, 9, 4, &mut Rng::from_seed(9)).unwrap();
        let result = ShardSet::new(
            vec![model(1), odd],
            ServeConfig::standard(1),
            RoutePolicy::Rendezvous,
        );
        assert!(matches!(result, Err(ServeError::BadRequest(_))));
        let empty: Vec<LinearServeModel> = Vec::new();
        assert!(matches!(
            ShardSet::new(empty, ServeConfig::standard(1), RoutePolicy::Rendezvous),
            Err(ServeError::BadRequest(_))
        ));
    }
}
