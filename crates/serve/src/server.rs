//! The live, concurrent server: one bounded inbox in front of a single
//! scheduler thread that owns a [`ShardSet`] — a single deployment is a
//! set of one, served exactly like N replicas.
//!
//! Concurrency model: any number of client threads
//! [`ShardServer::submit`] requests and [`ShardServer::chaos`] actions;
//! exactly one scheduler thread routes, batches, executes, fails over
//! and applies the actions. All model state, RNG, and the request logs
//! live behind that single thread, so scheduling races can only change
//! *which requests share a batch* — and batch composition is itself
//! logged, making the logs + seed a complete causal record. Replay
//! therefore reproduces the live responses bitwise even though the live
//! run was concurrent (see [`crate::replay_shards`]).
//!
//! Backpressure is typed and synchronous: a full set or one with no
//! admitting shard rejects at [`ShardServer::submit`] with
//! [`ServeError::QueueFull`] / [`ServeError::Shed`]; nothing is ever
//! dropped after admission — every admitted request's [`Handle`]
//! resolves with a response or a typed error, including across
//! [`ShardServer::kill`].

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::chaos::{ChaosAction, ChaosEvent, ChaosScript};
use crate::clock::ClockMode;
use crate::config::ServeConfig;
use crate::executor::{check_payload, Pending, Response};
use crate::model::ServeModel;
use crate::router::RoutePolicy;
use crate::shard::{ShardOutcome, ShardSet, ShardSetReport};
use crate::{Result, ServeError};

/// The scheduler's end of a request's one-shot response channel.
type Reply = Sender<Result<Response>>;

/// A submitted request's claim ticket.
pub struct Handle {
    id: u64,
    rx: Receiver<Result<Response>>,
}

impl Handle {
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
    /// or [`ServeError::Engine`]; [`ServeError::Internal`] if the
    /// scheduler thread died without resolving it.
    pub fn wait(self) -> Result<Response> {
        self.rx.recv().unwrap_or_else(|_| {
            Err(ServeError::Internal(
                "scheduler dropped the request unresolved".into(),
            ))
        })
    }
}

fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

enum InboxItem {
    Request(Pending, Reply),
    Action(ChaosAction),
}

struct Inbox {
    items: VecDeque<InboxItem>,
    /// Request items currently in the inbox.
    inbox_requests: usize,
    /// Queued requests inside the shard set: as last published, plus
    /// those drained from the inbox since.
    shard_depth: usize,
    /// Whether any shard admits, as last published.
    routable: bool,
    open: bool,
    killed: bool,
}

struct ShardShared {
    q: Mutex<Inbox>,
    cv: Condvar,
    /// Scheduler-published earliest shard clock (ns), for virtual-mode
    /// arrival stamping.
    clock_ns: AtomicU64,
    next_id: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_shed: AtomicU64,
}

/// A live, concurrent server over a [`ShardSet`] of one or more
/// deployments: one bounded inbox in front of a single scheduler thread
/// that owns the set. Admission is bounded by
/// `num_shards × queue_capacity`. Chaos actions enter through
/// [`ShardServer::chaos`] and take effect in submission order.
pub struct ShardServer<M> {
    shared: Arc<ShardShared>,
    sample_len: usize,
    total_capacity: usize,
    default_deadline_ns: u64,
    clock_mode: ClockMode,
    origin: Instant,
    worker: Option<JoinHandle<ShardSet<M>>>,
}

impl<M: ServeModel + Send + 'static> ShardServer<M> {
    /// Starts serving `models` — one deployment, or N replicas — under
    /// `config` (per shard; see [`ShardSet::new`]) on a dedicated
    /// scheduler thread.
    ///
    /// # Errors
    ///
    /// Propagates [`ShardSet::new`] errors.
    pub fn start(models: Vec<M>, config: ServeConfig, policy: RoutePolicy) -> Result<Self> {
        let sample_len = models
            .first()
            .map_or(0, |m| m.input_shape().iter().product());
        let total_capacity = config.queue_capacity * models.len();
        let default_deadline_ns = config.default_deadline_ns;
        let clock_mode = config.clock;
        let set = ShardSet::new(models, config, policy)?;
        let shared = Arc::new(ShardShared {
            q: Mutex::new(Inbox {
                items: VecDeque::new(),
                inbox_requests: 0,
                shard_depth: 0,
                routable: true,
                open: true,
                killed: false,
            }),
            cv: Condvar::new(),
            clock_ns: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            rejected_shed: AtomicU64::new(0),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::spawn(move || shard_scheduler_loop(set, &worker_shared));
        Ok(Self {
            shared,
            sample_len,
            total_capacity,
            default_deadline_ns,
            clock_mode,
            origin: Instant::now(),
            worker: Some(worker),
        })
    }

    /// Submits one request. Non-blocking: admission control answers
    /// immediately against the published shard state.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for a wrong-sized or non-finite
    /// payload, [`ServeError::QueueFull`] at total capacity,
    /// [`ServeError::Shed`] while no shard admits,
    /// [`ServeError::Closed`] after shutdown/kill.
    pub fn submit(&self, input: Vec<f32>, deadline_ns: Option<u64>) -> Result<Handle> {
        check_payload(&input, self.sample_len)?;
        let mut q = lock_recover(&self.shared.q);
        if !q.open {
            return Err(ServeError::Closed);
        }
        if !q.routable {
            self.shared.rejected_shed.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Shed);
        }
        if q.inbox_requests + q.shard_depth >= self.total_capacity {
            self.shared
                .rejected_queue_full
                .fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::QueueFull {
                capacity: self.total_capacity,
            });
        }
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
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
        let (tx, rx) = channel();
        q.items.push_back(InboxItem::Request(pending, tx));
        q.inbox_requests += 1;
        drop(q);
        self.shared.cv.notify_one();
        Ok(Handle { id, rx })
    }

    /// Enqueues one chaos/control action behind the currently submitted
    /// requests. Failures at application time (bad target, dead shard)
    /// are counted in the final stats — never silent.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Closed`] after shutdown/kill and
    /// [`ServeError::BadRequest`] for out-of-range parameters.
    pub fn chaos(&self, action: ChaosAction) -> Result<()> {
        // reuse the script-level parameter validation
        ChaosScript::new(vec![ChaosEvent {
            at_ns: 0,
            action: action.clone(),
        }])?;
        let mut q = lock_recover(&self.shared.q);
        if !q.open {
            return Err(ServeError::Closed);
        }
        q.items.push_back(InboxItem::Action(action));
        drop(q);
        self.shared.cv.notify_one();
        Ok(())
    }

    /// Last published earliest shard clock (virtual ns).
    pub fn clock_ns(&self) -> u64 {
        self.shared.clock_ns.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: closes admission, drains every queued request
    /// and action, then returns the final report.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Internal`] if the scheduler thread
    /// panicked or was already joined.
    pub fn shutdown(mut self) -> Result<ShardSetReport<M>> {
        self.close(false);
        self.join()
    }

    /// Hard stop: cancels everything still queued (owners receive
    /// [`ServeError::Closed`]); batches in flight complete and deliver.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Internal`] if the scheduler thread
    /// panicked or was already joined.
    pub fn kill(mut self) -> Result<ShardSetReport<M>> {
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

    fn join(&mut self) -> Result<ShardSetReport<M>> {
        let worker = self
            .worker
            .take()
            .ok_or_else(|| ServeError::Internal("shard server already joined".into()))?;
        let set = worker
            .join()
            .map_err(|_| ServeError::Internal("shard scheduler thread panicked".into()))?;
        let mut report = set.into_report();
        report.stats.rejected_queue_full += self.shared.rejected_queue_full.load(Ordering::Relaxed);
        report.stats.rejected_shed += self.shared.rejected_shed.load(Ordering::Relaxed);
        Ok(report)
    }
}

impl<M> Drop for ShardServer<M> {
    fn drop(&mut self) {
        if self.worker.is_some() {
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

enum ShardPulled {
    Items(Vec<InboxItem>),
    Kill(Vec<InboxItem>),
    Continue,
    Exit,
}

fn shard_pull<M: ServeModel>(shared: &ShardShared, set: &ShardSet<M>) -> ShardPulled {
    let mut q = lock_recover(&shared.q);
    loop {
        if q.killed {
            let items: Vec<InboxItem> = q.items.drain(..).collect();
            q.inbox_requests = 0;
            return ShardPulled::Kill(items);
        }
        if !q.items.is_empty() {
            let items: Vec<InboxItem> = q.items.drain(..).collect();
            // the drained requests now count against the set's queues
            // until the scheduler publishes their real depth, so inbox
            // plus queues never exceed the admission bound
            q.shard_depth += q.inbox_requests;
            q.inbox_requests = 0;
            return ShardPulled::Items(items);
        }
        if set.has_queued_work() {
            return ShardPulled::Continue;
        }
        if !q.open {
            return ShardPulled::Exit;
        }
        q = match shared.cv.wait(q) {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
    }
}

fn shard_scheduler_loop<M: ServeModel>(mut set: ShardSet<M>, shared: &ShardShared) -> ShardSet<M> {
    // a send fails only once the client dropped its handle
    let mut replies: HashMap<u64, Reply> = HashMap::new();
    let resolve = |replies: &mut HashMap<u64, Reply>, outcomes: Vec<ShardOutcome>| {
        for (id, outcome) in outcomes {
            if let Some(tx) = replies.remove(&id) {
                let _ = tx.send(outcome);
            }
        }
    };
    loop {
        match shard_pull(shared, &set) {
            ShardPulled::Exit => return set,
            ShardPulled::Kill(items) => {
                let mut unrouted = 0u64;
                for item in items {
                    if let InboxItem::Request(_, tx) = item {
                        let _ = tx.send(Err(ServeError::Closed));
                        unrouted += 1;
                    }
                }
                set.cancel_unrouted(unrouted);
                let outcomes = set.cancel_queued();
                resolve(&mut replies, outcomes);
                return set;
            }
            ShardPulled::Items(items) => {
                for item in items {
                    match item {
                        InboxItem::Request(pending, tx) => {
                            let id = pending.id;
                            match set.submit(pending) {
                                Ok(_) => {
                                    replies.insert(id, tx);
                                }
                                Err(e) => {
                                    let _ = tx.send(Err(e));
                                }
                            }
                        }
                        InboxItem::Action(action) => {
                            // failures are counted by the set
                            if let Ok(outcomes) = set.apply(&action) {
                                resolve(&mut replies, outcomes);
                            }
                        }
                    }
                }
            }
            ShardPulled::Continue => {}
        }
        let outcomes = set.serve_round();
        resolve(&mut replies, outcomes);
        shared.clock_ns.store(set.min_clock_ns(), Ordering::Relaxed);
        let routable = set.any_routable();
        let depth = set.total_depth();
        let mut q = lock_recover(&shared.q);
        q.routable = routable;
        q.shard_depth = depth;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::LogEvent;
    use crate::model::LinearServeModel;
    use crate::testing::{models, payload};

    fn start(n_shards: usize, config: ServeConfig) -> ShardServer<LinearServeModel> {
        let models = models(n_shards, config.seed);
        ShardServer::start(models, config, RoutePolicy::Rendezvous).unwrap()
    }

    #[test]
    fn serves_and_shuts_down_clean() {
        for n_shards in [1, 3] {
            let server = start(n_shards, ServeConfig::standard(1));
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
    }

    #[test]
    fn wrong_sized_payload_rejected_at_submit() {
        let server = start(1, ServeConfig::standard(2));
        assert!(matches!(
            server.submit(vec![0.0; 5], None),
            Err(ServeError::BadRequest(_))
        ));
        let report = server.shutdown().unwrap();
        assert_eq!(report.stats.admitted, 0);
    }

    #[test]
    fn non_finite_payload_rejected_and_batchmates_complete() {
        let server = start(1, ServeConfig::standard(5));
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
        for n_shards in [1, 3] {
            let server = start(n_shards, ServeConfig::standard(3));
            server.close(false);
            assert!(matches!(
                server.submit(payload(0), None),
                Err(ServeError::Closed)
            ));
            assert!(matches!(
                server.chaos(ChaosAction::Kill { shard: 0 }),
                Err(ServeError::Closed)
            ));
        }
    }

    #[test]
    fn kill_resolves_every_handle() {
        for n_shards in [1, 3] {
            // tiny batches so a backlog survives long enough to be killed
            let mut cfg = ServeConfig::standard(4);
            cfg.max_batch = 1;
            cfg.block_align = 1;
            let server = start(n_shards, cfg);
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
    }

    #[test]
    fn chaos_injection_is_ordered_with_requests() {
        let server = start(1, ServeConfig::standard(5));
        let h0 = server.submit(payload(0), None).unwrap();
        server
            .chaos(ChaosAction::Upset {
                shard: 0,
                rate: 0.3,
            })
            .unwrap();
        let h1 = server.submit(payload(1), None).unwrap();
        h0.wait().unwrap();
        h1.wait().unwrap();
        let report = server.shutdown().unwrap();
        assert_eq!(report.stats.chaos_events, 1);
        assert!(report.stats.chaos_upsets > 0);
        assert!(report.stats.accounted());
        // request 0 batches before the upset, request 1 after it
        let events = report.shards[0].log.events();
        let batch_of = |id: u64| {
            events
                .iter()
                .position(|e| matches!(e, LogEvent::Batch { ids } if ids.contains(&id)))
                .unwrap()
        };
        let upset = events
            .iter()
            .position(|e| matches!(e, LogEvent::Chaos { .. }))
            .unwrap();
        assert!(batch_of(0) < upset && upset < batch_of(1));
    }
}
