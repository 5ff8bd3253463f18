//! Typed serving errors.
//!
//! Every way a request can fail to produce logits has a variant here —
//! admission control, deadline expiry, load shedding, shutdown, and
//! engine failures all reject *explicitly*. The serving loop never drops
//! a request silently: a submitted request either completes or its owner
//! receives exactly one of these errors, and the proptest suite pins
//! that accounting identity.

use std::fmt;

use membit_core::TrainError;
use membit_tensor::TensorError;

/// Why a request was rejected or failed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// Admission control: the bounded queue is at capacity. Backpressure
    /// — the client should retry later or slow down.
    QueueFull {
        /// The configured queue capacity the request bounced off.
        capacity: usize,
    },
    /// The request waited past its deadline before a batch picked it up.
    DeadlineExceeded {
        /// Virtual time the request arrived (ns).
        arrival_ns: u64,
        /// Its deadline budget (ns).
        deadline_ns: u64,
        /// Virtual time at which the expiry was detected (ns).
        now_ns: u64,
    },
    /// Health-aware load shedding: guard violation rates or degraded
    /// layers crossed the shedding threshold and admission is closed
    /// until the deployment recovers.
    Shed,
    /// The server is shutting down (or was killed) and will not serve
    /// this request.
    Closed,
    /// The engine failed after exhausting the serving-level retry
    /// budget (which itself sits above the guard escalation ladder).
    Engine(TrainError),
    /// A request payload didn't match the model's input shape.
    BadRequest(String),
    /// A broken internal invariant surfaced typed instead of panicking:
    /// a poisoned scheduler thread, a model returning a wrong-shaped
    /// batch output, a router with no shards. These indicate bugs, not
    /// load — they are never produced by well-formed traffic.
    Internal(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            ServeError::DeadlineExceeded {
                arrival_ns,
                deadline_ns,
                now_ns,
            } => write!(
                f,
                "deadline exceeded: arrived at {arrival_ns} ns with {deadline_ns} ns budget, now {now_ns} ns"
            ),
            ServeError::Shed => write!(f, "load shed: deployment health below serving threshold"),
            ServeError::Closed => write!(f, "server closed"),
            ServeError::Engine(e) => write!(f, "engine failure: {e}"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::Internal(msg) => write!(f, "internal serving error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TrainError> for ServeError {
    fn from(e: TrainError) -> Self {
        ServeError::Engine(e)
    }
}

impl From<TensorError> for ServeError {
    fn from(e: TensorError) -> Self {
        ServeError::Engine(TrainError::Tensor(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        assert!(ServeError::QueueFull { capacity: 4 }
            .to_string()
            .contains("capacity 4"));
        let d = ServeError::DeadlineExceeded {
            arrival_ns: 100,
            deadline_ns: 50,
            now_ns: 200,
        };
        assert!(d.to_string().contains("deadline"));
        assert!(ServeError::Shed.to_string().contains("shed"));
        let e: ServeError = TensorError::InvalidArgument("x".into()).into();
        assert!(matches!(e, ServeError::Engine(TrainError::Tensor(_))));
        assert!(ServeError::Internal("scheduler thread panicked".into())
            .to_string()
            .contains("internal"));
    }
}
