//! The live, concurrent server: a bounded queue in front of a single
//! scheduler thread that owns the [`Executor`].
//!
//! Concurrency model: any number of client threads [`Server::submit`]
//! requests; exactly one scheduler thread admits, batches, and executes
//! them. All model state, RNG, and the request log live behind that
//! single thread, so scheduling races can only change *which requests
//! share a batch* — and batch composition is itself logged, making the
//! log + seed a complete causal record. Replay therefore reproduces the
//! live responses bitwise even though the live run was concurrent (see
//! [`crate::replay`]).
//!
//! Backpressure is typed and synchronous: a full queue or a shedding
//! deployment rejects at [`Server::submit`] with
//! [`ServeError::QueueFull`] / [`ServeError::Shed`]; nothing is ever
//! dropped after admission — every admitted request's [`Handle`]
//! resolves with a response or a typed error, including across
//! [`Server::kill`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::clock::ClockMode;
use crate::config::ServeConfig;
use crate::executor::{
    admit_check, batch_quota, check_payload, Executor, Pending, Response, ServeStats,
};
use crate::health::HealthState;
use crate::log::RequestLog;
use crate::model::ServeModel;
use crate::{Result, ServeError};

/// One-shot response slot a client blocks on. Shared with the sharded
/// server ([`crate::ShardServer`]), which resolves the same handles.
pub(crate) struct Slot {
    cell: Mutex<Option<Result<Response>>>,
    cv: Condvar,
}

impl Slot {
    pub(crate) fn new() -> Self {
        Self {
            cell: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn fill(&self, outcome: Result<Response>) {
        let mut cell = lock_recover(&self.cell);
        *cell = Some(outcome);
        self.cv.notify_all();
    }
}

/// A submitted request's claim ticket.
pub struct Handle {
    id: u64,
    slot: Arc<Slot>,
}

impl Handle {
    pub(crate) fn new(id: u64, slot: Arc<Slot>) -> Self {
        Self { id, slot }
    }

    /// The request id (dense, in submission order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the request resolves, returning the response or the
    /// typed rejection.
    ///
    /// # Errors
    ///
    /// Returns whatever the serving loop resolved the request with:
    /// [`ServeError::DeadlineExceeded`], [`ServeError::Closed`] (kill),
    /// or [`ServeError::Engine`].
    pub fn wait(self) -> Result<Response> {
        let mut cell = lock_recover(&self.slot.cell);
        loop {
            if let Some(outcome) = cell.take() {
                return outcome;
            }
            cell = match self.slot.cv.wait(cell) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

enum Work {
    Request(Pending, Arc<Slot>),
    Chaos { rate: f32 },
}

struct QueueState {
    queue: VecDeque<Work>,
    /// Request entries currently queued (chaos markers excluded).
    depth: usize,
    /// High-water mark of `depth`.
    max_depth: usize,
    open: bool,
    killed: bool,
    health: HealthState,
}

struct Shared {
    q: Mutex<QueueState>,
    cv: Condvar,
    /// Scheduler-published virtual clock (ns) for arrival stamping.
    clock_ns: AtomicU64,
    next_id: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_shed: AtomicU64,
}

pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Final report of a serving session.
pub struct ServeReport<M> {
    /// The model, with whatever damage/repairs serving left on it.
    pub model: M,
    /// The append-only request log (feed to [`crate::replay`]).
    pub log: RequestLog,
    /// Aggregate counters; `stats.accounted()` holds.
    pub stats: ServeStats,
}

/// A fault-tolerant, deterministic batched inference server.
pub struct Server<M> {
    shared: Arc<Shared>,
    sample_len: usize,
    capacity: usize,
    default_deadline_ns: u64,
    clock_mode: ClockMode,
    /// Wall-clock origin for [`ClockMode::Monotonic`] arrival stamping;
    /// shared with the executor's deadline clock up to thread-spawn skew.
    origin: Instant,
    worker: Option<JoinHandle<Executor<M>>>,
}

impl<M: ServeModel + Send + 'static> Server<M> {
    /// Starts serving `model` under `config` on a dedicated scheduler
    /// thread.
    ///
    /// # Errors
    ///
    /// Propagates [`ServeConfig::validate`].
    pub fn start(model: M, config: ServeConfig) -> Result<Self> {
        let executor = Executor::new(model, config)?;
        let sample_len = executor.input_shape().iter().product();
        let clock_mode = executor.config().clock;
        let capacity = executor.config().queue_capacity;
        let max_batch = executor.config().max_batch;
        let block_align = executor.config().block_align;
        let default_deadline_ns = executor.config().default_deadline_ns;
        let shared = Arc::new(Shared {
            q: Mutex::new(QueueState {
                queue: VecDeque::new(),
                depth: 0,
                max_depth: 0,
                open: true,
                killed: false,
                health: HealthState::Healthy,
            }),
            cv: Condvar::new(),
            clock_ns: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            rejected_shed: AtomicU64::new(0),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::spawn(move || {
            scheduler_loop(executor, &worker_shared, max_batch, block_align)
        });
        Ok(Self {
            shared,
            sample_len,
            capacity,
            default_deadline_ns,
            clock_mode,
            origin: Instant::now(),
            worker: Some(worker),
        })
    }

    /// Submits one request (flattened sample, optional deadline
    /// override in virtual ns). Non-blocking: admission control answers
    /// immediately.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for a wrong-sized or non-finite
    /// payload, [`ServeError::QueueFull`] at capacity,
    /// [`ServeError::Shed`] while the deployment sheds load,
    /// [`ServeError::Closed`] after shutdown/kill.
    pub fn submit(&self, input: Vec<f32>, deadline_ns: Option<u64>) -> Result<Handle> {
        check_payload(&input, self.sample_len)?;
        let mut q = lock_recover(&self.shared.q);
        if !q.open {
            return Err(ServeError::Closed);
        }
        if let Err(e) = admit_check(q.depth, self.capacity, q.health) {
            match &e {
                ServeError::QueueFull { .. } => {
                    self.shared.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
                }
                ServeError::Shed => {
                    self.shared.rejected_shed.fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
            return Err(e);
        }
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        // Virtual mode stamps arrivals with the published virtual clock
        // (deterministic); Monotonic mode stamps real elapsed ns so
        // deadlines expire on wall time. Replay is unaffected either
        // way: it follows the logged timeline.
        let arrival_ns = match self.clock_mode {
            ClockMode::Virtual => self.shared.clock_ns.load(Ordering::Relaxed),
            ClockMode::Monotonic => {
                u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
            }
        };
        let pending = Pending {
            id,
            input,
            arrival_ns,
            deadline_ns: deadline_ns.unwrap_or(self.default_deadline_ns),
        };
        let slot = Arc::new(Slot::new());
        let handle = Handle::new(id, Arc::clone(&slot));
        q.queue.push_back(Work::Request(pending, slot));
        q.depth += 1;
        q.max_depth = q.max_depth.max(q.depth);
        drop(q);
        self.shared.cv.notify_one();
        Ok(handle)
    }

    /// Enqueues a chaos injection ([`ServeModel::inject_upsets`] at
    /// `rate`) behind the currently queued requests — the mid-serving
    /// `upset_cell` fault hook. Chaos bypasses capacity (it occupies no
    /// request slot) but respects queue order, so live execution and
    /// replay agree on exactly which batches run on damaged arrays.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Closed`] after shutdown/kill.
    pub fn inject_chaos(&self, rate: f32) -> Result<()> {
        let mut q = lock_recover(&self.shared.q);
        if !q.open {
            return Err(ServeError::Closed);
        }
        q.queue.push_back(Work::Chaos { rate });
        drop(q);
        self.shared.cv.notify_one();
        Ok(())
    }

    /// Current health state as last published by the scheduler.
    pub fn health_state(&self) -> HealthState {
        lock_recover(&self.shared.q).health
    }

    /// Last published virtual clock (ns).
    pub fn clock_ns(&self) -> u64 {
        self.shared.clock_ns.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: closes admission, drains every queued request
    /// and chaos event, then returns the final report.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Internal`] if the scheduler thread
    /// panicked.
    pub fn shutdown(mut self) -> Result<ServeReport<M>> {
        self.close(false);
        self.join()
    }

    /// Hard stop: closes admission and cancels everything still queued
    /// (owners receive [`ServeError::Closed`]); the batch in flight, if
    /// any, completes and its responses are delivered. Returns the final
    /// report — whose log replays to exactly the responses that were
    /// actually delivered.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Internal`] if the scheduler thread
    /// panicked.
    pub fn kill(mut self) -> Result<ServeReport<M>> {
        self.close(true);
        self.join()
    }

    fn close(&self, kill: bool) {
        let mut q = lock_recover(&self.shared.q);
        q.open = false;
        if kill {
            q.killed = true;
        }
        drop(q);
        self.shared.cv.notify_all();
    }

    fn join(&mut self) -> Result<ServeReport<M>> {
        let worker = self
            .worker
            .take()
            .ok_or_else(|| ServeError::Internal("server already joined".into()))?;
        let executor = worker
            .join()
            .map_err(|_| ServeError::Internal("scheduler thread panicked".into()))?;
        let (model, log, mut stats) = executor.into_report();
        stats.rejected_queue_full += self.shared.rejected_queue_full.load(Ordering::Relaxed);
        stats.rejected_shed += self.shared.rejected_shed.load(Ordering::Relaxed);
        Ok(ServeReport { model, log, stats })
    }
}

impl<M> Drop for Server<M> {
    fn drop(&mut self) {
        if self.worker.is_some() {
            // dropped without shutdown(): cancel queued work so no
            // client blocks forever, then detach-join the scheduler
            let mut q = lock_recover(&self.shared.q);
            q.open = false;
            q.killed = true;
            drop(q);
            self.shared.cv.notify_all();
            if let Some(worker) = self.worker.take() {
                let _ = worker.join();
            }
        }
    }
}

/// What the scheduler pulled from the queue in one pass.
enum Pulled {
    /// Serve these in order: chaos injections first, then one batch.
    Work {
        chaos: Vec<f32>,
        batch: Vec<(Pending, Arc<Slot>)>,
    },
    /// Kill: cancel everything still queued, then exit.
    Cancel(Vec<(Pending, Arc<Slot>)>),
    /// Drained and closed: exit.
    Exit,
}

fn pull(shared: &Shared, max_batch: usize, block_align: usize) -> (Pulled, usize) {
    let mut q = lock_recover(&shared.q);
    loop {
        if q.killed {
            let mut cancelled = Vec::new();
            while let Some(work) = q.queue.pop_front() {
                if let Work::Request(p, slot) = work {
                    cancelled.push((p, slot));
                }
            }
            q.depth = 0;
            return (Pulled::Cancel(cancelled), q.max_depth);
        }
        if q.queue.is_empty() {
            if !q.open {
                return (Pulled::Exit, q.max_depth);
            }
            q = match shared.cv.wait(q) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            continue;
        }
        // pop leading chaos markers, then one aligned batch of requests
        let mut chaos = Vec::new();
        while matches!(q.queue.front(), Some(Work::Chaos { .. })) {
            if let Some(Work::Chaos { rate }) = q.queue.pop_front() {
                chaos.push(rate);
            }
        }
        let run = q
            .queue
            .iter()
            .take_while(|w| matches!(w, Work::Request(..)))
            .count();
        let take = if run == 0 {
            0
        } else {
            batch_quota(run, max_batch, block_align)
        };
        let mut batch = Vec::with_capacity(take);
        for _ in 0..take {
            if let Some(Work::Request(p, slot)) = q.queue.pop_front() {
                batch.push((p, slot));
            }
        }
        q.depth -= batch.len();
        return (Pulled::Work { chaos, batch }, q.max_depth);
    }
}

fn scheduler_loop<M: ServeModel>(
    mut executor: Executor<M>,
    shared: &Shared,
    max_batch: usize,
    block_align: usize,
) -> Executor<M> {
    loop {
        let (pulled, max_depth) = pull(shared, max_batch, block_align);
        executor.note_queue_depth(max_depth);
        match pulled {
            Pulled::Exit => return executor,
            Pulled::Cancel(requests) => {
                let pendings: Vec<Pending> = requests.iter().map(|(p, _)| p.clone()).collect();
                let outcomes = executor.cancel(pendings);
                for ((_, slot), (_, outcome)) in requests.into_iter().zip(outcomes) {
                    slot.fill(outcome);
                }
                return executor;
            }
            Pulled::Work { chaos, batch } => {
                for rate in chaos {
                    // failures are counted by the executor
                    // (stats.chaos_failures) without breaking the loop
                    let _ = executor.apply_chaos(rate);
                }
                if batch.is_empty() {
                    continue;
                }
                let mut slots = Vec::with_capacity(batch.len());
                let mut pendings = Vec::with_capacity(batch.len());
                for (p, slot) in batch {
                    // malformed payloads were rejected at submit; a
                    // register failure here is still surfaced typed
                    match executor.register(&p) {
                        Ok(()) => {
                            slots.push((p.id, slot));
                            pendings.push(p);
                        }
                        Err(e) => slot.fill(Err(e)),
                    }
                }
                let outcomes = executor.serve(pendings);
                for (req, outcome) in outcomes {
                    if let Some(pos) = slots.iter().position(|(id, _)| *id == req.id) {
                        let (_, slot) = slots.swap_remove(pos);
                        slot.fill(outcome);
                    }
                }
                shared
                    .clock_ns
                    .store(executor.clock_ns(), Ordering::Relaxed);
                let state = executor.health_state();
                let mut q = lock_recover(&shared.q);
                q.health = state;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LinearServeModel;
    use membit_tensor::{Rng, Tensor};
    use membit_xbar::{GuardPolicy, XbarConfig};

    fn model(seed: u64) -> LinearServeModel {
        let w = Tensor::from_fn(&[2, 3], |i| if i % 2 == 0 { 1.0 } else { -1.0 });
        let cfg = XbarConfig::functional(0.02).with_guard(GuardPolicy::standard());
        LinearServeModel::program(&w, &cfg, 9, 4, &mut Rng::from_seed(seed)).unwrap()
    }

    fn payload(i: usize) -> Vec<f32> {
        (0..3)
            .map(|j| (((i * 3 + j) % 5) as f32 / 2.0 - 1.0).clamp(-1.0, 1.0))
            .collect()
    }

    #[test]
    fn serves_and_shuts_down_clean() {
        let server = Server::start(model(1), ServeConfig::standard(1)).unwrap();
        let handles: Vec<Handle> = (0..6)
            .map(|i| server.submit(payload(i), None).unwrap())
            .collect();
        for h in handles {
            let r = h.wait().unwrap();
            assert_eq!(r.output.len(), 2);
        }
        let report = server.shutdown().unwrap();
        assert!(report.stats.accounted());
        assert_eq!(report.stats.completed, 6);
        assert_eq!(report.stats.failed, 0);
    }

    #[test]
    fn wrong_sized_payload_rejected_at_submit() {
        let server = Server::start(model(2), ServeConfig::standard(2)).unwrap();
        assert!(matches!(
            server.submit(vec![0.0; 5], None),
            Err(ServeError::BadRequest(_))
        ));
        let report = server.shutdown().unwrap();
        assert_eq!(report.stats.admitted, 0);
    }

    #[test]
    fn non_finite_payload_rejected_and_batchmates_complete() {
        let server = Server::start(model(5), ServeConfig::standard(5)).unwrap();
        let mut handles = Vec::new();
        for i in 0..6 {
            if i == 3 {
                let mut bad = payload(i);
                bad[1] = f32::NAN;
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
        assert!(report.stats.accounted());
        assert_eq!(report.stats.admitted, 5);
        assert_eq!(report.stats.completed, 5);
        assert_eq!(report.stats.failed, 0);
    }

    #[test]
    fn submit_after_shutdown_is_closed() {
        let server = Server::start(model(3), ServeConfig::standard(3)).unwrap();
        server.close(false);
        assert!(matches!(
            server.submit(payload(0), None),
            Err(ServeError::Closed)
        ));
    }

    #[test]
    fn kill_resolves_every_handle() {
        // tiny batches so a backlog survives long enough to be killed
        let mut cfg = ServeConfig::standard(4);
        cfg.max_batch = 1;
        cfg.block_align = 1;
        let server = Server::start(model(4), cfg).unwrap();
        let handles: Vec<Handle> = (0..16)
            .map(|i| server.submit(payload(i), None).unwrap())
            .collect();
        let report = server.kill().unwrap();
        assert!(report.stats.accounted());
        let mut completed = 0u64;
        let mut cancelled = 0u64;
        for h in handles {
            match h.wait() {
                Ok(_) => completed += 1,
                Err(ServeError::Closed) => cancelled += 1,
                Err(e) => panic!("unexpected outcome: {e}"),
            }
        }
        assert_eq!(completed, report.stats.completed);
        assert_eq!(cancelled, report.stats.cancelled);
        assert_eq!(completed + cancelled, 16);
    }

    #[test]
    fn chaos_injection_is_ordered_with_requests() {
        let server = Server::start(model(5), ServeConfig::standard(5)).unwrap();
        let h0 = server.submit(payload(0), None).unwrap();
        server.inject_chaos(0.3).unwrap();
        let h1 = server.submit(payload(1), None).unwrap();
        h0.wait().unwrap();
        h1.wait().unwrap();
        let report = server.shutdown().unwrap();
        assert_eq!(report.stats.chaos_events, 1);
        assert!(report.stats.chaos_upsets > 0);
        assert!(report.stats.accounted());
    }
}
