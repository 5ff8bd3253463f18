//! The chaos-campaign harness: declarative fault scripts executed
//! against a [`ShardSet`](crate::ShardSet), in simulation or live. Faults
//! reach a deployment only through these actions — a single deployment
//! takes them as shard 0 of a set of one.
//!
//! A [`ChaosScript`] is a time-sorted list of control-plane actions —
//! kill shard *k* at virtual time *t*, upset cells, force health
//! degradation, reconfigure an encoding under load — that the
//! discrete-event [`simulate_shards`](crate::simulate_shards) driver and
//! the live threaded [`ShardServer`](crate::ShardServer) both understand
//! (the live server takes the same [`ChaosAction`]s through
//! [`ShardServer::chaos`](crate::ShardServer::chaos)). Campaigns are
//! deterministic end to end: actions are applied at defined points of
//! the virtual timeline, cell upsets draw from the target shard's
//! logged RNG stream, and every consequence — failover, cancellation,
//! dropped mutation — lands in the set-level accounting, never on the
//! floor.

use crate::{Result, ServeError};

/// One control-plane action against a shard.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosAction {
    /// Hard-kill the shard: it stops serving immediately, its queued
    /// requests fail over to surviving shards under the retry policy,
    /// and its queued mutations are dropped (counted, never silent).
    Kill {
        /// Target shard index.
        shard: usize,
    },
    /// Bring a killed shard back up (its accumulated cell damage stays).
    Revive {
        /// Target shard index.
        shard: usize,
    },
    /// Stop admitting to the shard until its queue empties, then return
    /// it to service — the maintenance maneuver.
    Drain {
        /// Target shard index.
        shard: usize,
    },
    /// Inject transient cell upsets at the per-cell `rate`, queued
    /// behind the shard's currently waiting requests (stream order is
    /// logged, so replay sees the same damage at the same point).
    Upset {
        /// Target shard index.
        shard: usize,
        /// Per-cell upset rate in `[0, 1]`.
        rate: f32,
    },
    /// Force the shard's guard-violation EMA to `ema` — the
    /// deterministic way to drive the Healthy → Degraded → Shedding
    /// ladder (and the quarantine it triggers) without touching cells.
    Degrade {
        /// Target shard index.
        shard: usize,
        /// Forced violation estimate in `[0, 1]`.
        ema: f64,
    },
    /// Swap the shard's input-encoding pulse counts between batches
    /// (drains the executing batch window first; the swap is logged as
    /// a `Reconfigure` record and replays bitwise).
    Reconfigure {
        /// Target shard index.
        shard: usize,
        /// Pulse counts per crossbar operator.
        pulses: Vec<usize>,
    },
}

impl ChaosAction {
    /// The shard the action targets.
    pub fn shard(&self) -> usize {
        match self {
            ChaosAction::Kill { shard }
            | ChaosAction::Revive { shard }
            | ChaosAction::Drain { shard }
            | ChaosAction::Upset { shard, .. }
            | ChaosAction::Degrade { shard, .. }
            | ChaosAction::Reconfigure { shard, .. } => *shard,
        }
    }

    /// Validates the action's parameters (shard-index bounds are checked
    /// at application time, where the set size is known).
    fn validate(&self) -> Result<()> {
        match self {
            ChaosAction::Upset { rate, .. } => {
                if !(rate.is_finite() && (0.0..=1.0).contains(rate)) {
                    return Err(ServeError::BadRequest(format!(
                        "upset rate {rate} must lie in [0, 1]"
                    )));
                }
            }
            ChaosAction::Degrade { ema, .. } => {
                if !(ema.is_finite() && (0.0..=1.0).contains(ema)) {
                    return Err(ServeError::BadRequest(format!(
                        "degrade ema {ema} must lie in [0, 1]"
                    )));
                }
            }
            ChaosAction::Reconfigure { pulses, .. } => {
                if pulses.is_empty() {
                    return Err(ServeError::BadRequest(
                        "reconfigure needs at least one pulse count".into(),
                    ));
                }
            }
            ChaosAction::Kill { .. } | ChaosAction::Revive { .. } | ChaosAction::Drain { .. } => {}
        }
        Ok(())
    }
}

/// One scripted action at a virtual instant.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosEvent {
    /// Virtual time the action fires (ns). At a tie with a request
    /// arrival, the chaos action is applied first.
    pub at_ns: u64,
    /// The action.
    pub action: ChaosAction,
}

/// A declarative, time-sorted fault script.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosScript {
    events: Vec<ChaosEvent>,
}

impl ChaosScript {
    /// Wraps `events` as a script.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] for an unsorted timeline or
    /// out-of-range action parameters.
    pub fn new(events: Vec<ChaosEvent>) -> Result<Self> {
        if events.windows(2).any(|w| w[0].at_ns > w[1].at_ns) {
            return Err(ServeError::BadRequest(
                "chaos script must be sorted by at_ns".into(),
            ));
        }
        for e in &events {
            e.action.validate()?;
        }
        Ok(Self { events })
    }

    /// The no-fault script.
    pub fn empty() -> Self {
        Self::default()
    }

    /// The scripted events, time-sorted.
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// Number of scripted events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the script holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_must_be_sorted_and_valid() {
        let ok = ChaosScript::new(vec![
            ChaosEvent {
                at_ns: 0,
                action: ChaosAction::Upset {
                    shard: 0,
                    rate: 0.1,
                },
            },
            ChaosEvent {
                at_ns: 5,
                action: ChaosAction::Kill { shard: 1 },
            },
        ]);
        assert!(ok.is_ok());
        assert_eq!(ok.unwrap().len(), 2);
        let unsorted = ChaosScript::new(vec![
            ChaosEvent {
                at_ns: 5,
                action: ChaosAction::Kill { shard: 1 },
            },
            ChaosEvent {
                at_ns: 0,
                action: ChaosAction::Kill { shard: 0 },
            },
        ]);
        assert!(matches!(unsorted, Err(ServeError::BadRequest(_))));
        for bad in [
            ChaosAction::Upset {
                shard: 0,
                rate: 1.5,
            },
            ChaosAction::Upset {
                shard: 0,
                rate: f32::NAN,
            },
            ChaosAction::Degrade {
                shard: 0,
                ema: -0.1,
            },
            ChaosAction::Reconfigure {
                shard: 0,
                pulses: vec![],
            },
        ] {
            let r = ChaosScript::new(vec![ChaosEvent {
                at_ns: 0,
                action: bad,
            }]);
            assert!(matches!(r, Err(ServeError::BadRequest(_))));
        }
    }

    #[test]
    fn action_names_its_shard() {
        assert_eq!(ChaosAction::Kill { shard: 3 }.shard(), 3);
        assert_eq!(
            ChaosAction::Reconfigure {
                shard: 1,
                pulses: vec![8]
            }
            .shard(),
            1
        );
    }
}
