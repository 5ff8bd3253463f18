//! `membit-serve` — fault-tolerant deterministic batched inference
//! serving for binary memristive crossbar models.
//!
//! The crate fronts a deployed crossbar model ([`DeviceVgg`] or a
//! single [`LinearServeModel`] layer) with a production-shaped serving
//! loop:
//!
//! - **Bounded admission.** A fixed-capacity queue with typed
//!   backpressure — [`ServeError::QueueFull`], [`ServeError::Shed`],
//!   [`ServeError::DeadlineExceeded`] — so overload is always visible
//!   to the caller, never a silent drop.
//! - **Dynamic batching.** Waiting requests are packed into batches
//!   aligned to the engine's sample-block partitioning
//!   ([`batch_quota`]), amortising pulse streaming across requests.
//! - **Deadlines and retries.** Each request carries a virtual-time
//!   deadline; transient guard failures are retried with exponential
//!   backoff ([`RetryPolicy`]) *above* the engine's own guard ladder
//!   (retry → refresh → remap → digital fallback).
//! - **Health-aware degradation.** A guard-violation EMA plus the
//!   deployment's degraded-layer count drive a
//!   Healthy → Degraded → Shedding state machine ([`HealthTracker`])
//!   that sheds load before the hardware drowns.
//! - **Deterministic replay.** Every admission, chaos injection,
//!   expiry, and batch composition is recorded in an append-only
//!   [`RequestLog`] per shard; [`replay_shards`] re-executes the logs
//!   against fresh deployments and reproduces every response
//!   **bitwise**, at any engine thread count.
//!
//! There is one serving path. A [`ShardSet`] of one or more deployments
//! owns every [`Executor`], behind a deterministic [`Router`]
//! (rendezvous or round-robin, pure in `(seed, id, eligible set)`), with
//! per-shard health driving admission, drain, quarantine, and failover —
//! a request whose shard dies mid-flight re-routes under the
//! [`RetryPolicy`] with zero silent drops, and the accounting identity
//! extends across shards. Two drivers own a set: the threaded
//! [`ShardServer`] for live concurrent clients and the discrete-event
//! [`simulate_shards`] loop for load sweeps in virtual time. A single
//! deployment is a set of one, and two rules make it serve exactly like
//! a lone deployment: it serves on the set seed itself, and it is never
//! quarantined — it answers [`ServeError::Shed`] and serves its backlog.
//!
//! Faults, cell upsets and live encoding reconfigurations travel only in
//! the [`chaos`] harness: a [`ChaosScript`] for [`simulate_shards`], or
//! single [`ChaosAction`]s applied to a live [`ShardServer`]. Deadlines
//! expire on the virtual timeline by default, or on real elapsed time
//! with [`ClockMode::Monotonic`].
//!
//! # Quickstart
//!
//! ```
//! use membit_serve::{simulate_shards, ArrivalEvent, ArrivalKind, ChaosScript};
//! use membit_serve::{LinearServeModel, RoutePolicy, ServeConfig};
//! use membit_tensor::{Rng, Tensor};
//! use membit_xbar::{GuardPolicy, XbarConfig};
//!
//! let w = Tensor::from_fn(&[2, 3], |i| if i % 2 == 0 { 1.0 } else { -1.0 });
//! let cfg = XbarConfig::functional(0.02).with_guard(GuardPolicy::standard());
//! let model = LinearServeModel::program(&w, &cfg, 9, 4, &mut Rng::from_seed(1)).unwrap();
//!
//! let schedule: Vec<ArrivalEvent> = (0..4)
//!     .map(|i| ArrivalEvent {
//!         at_ns: i as u64 * 1_000,
//!         kind: ArrivalKind::Request { input: vec![0.5, -0.5, 1.0], deadline_ns: None },
//!     })
//!     .collect();
//! let report = simulate_shards(
//!     vec![model],
//!     ServeConfig::standard(7),
//!     RoutePolicy::Rendezvous,
//!     &schedule,
//!     &ChaosScript::empty(),
//! )
//! .unwrap();
//! assert_eq!(report.stats.completed, 4);
//! assert!(report.stats.accounted());
//! ```
//!
//! [`DeviceVgg`]: membit_core::DeviceVgg

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod clock;
pub mod config;
pub mod error;
pub mod executor;
pub mod health;
pub mod log;
pub mod model;
pub mod router;
pub mod server;
pub mod shard;
pub mod sim;
#[cfg(test)]
mod testing;

pub use chaos::{ChaosAction, ChaosEvent, ChaosScript};
pub use clock::{ClockMode, MonotonicClock, ServeClock, VirtualClock};
pub use config::{RetryPolicy, ServeConfig};
pub use error::ServeError;
pub use executor::{batch_quota, Executor, Pending, Response, ServeStats};
pub use health::{HealthPolicy, HealthState, HealthTracker};
pub use log::{serve_rng, LogEvent, RequestLog};
pub use model::{LinearServeModel, ServeModel};
pub use router::{shard_seed, RoutePolicy, Router};
pub use server::{Handle, ShardServer};
pub use shard::{replay_shards, ShardRecord, ShardSet, ShardSetReport, ShardStatus};
pub use sim::{simulate_shards, ArrivalEvent, ArrivalKind, ShardSimReport, SimOutcome};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ServeError>;
